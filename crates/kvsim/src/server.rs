//! Trace execution: the measured "server + client" pair.
//!
//! A [`Server`] owns one engine and plays [`ycsb`] traces against it,
//! producing the quantities the paper's Sensitivity Engine extracts by
//! actually running the workload: total runtime, average read/write
//! service times, throughput and latency distributions.
//!
//! The engine's memory system is a [`TierStack`] of any depth. A server
//! built by [`Server::build_with`] places keys statically by
//! [`Placement`]; one built by [`Server::build_tiered`] takes its
//! initial placement from a [`TieringPolicy`] and, with epochs on,
//! re-plans every that many requests, charging each move's copy cost
//! (read from source + write to destination, priced by
//! [`TierStack::migrate`]) and any failed-move backoff to the run's
//! clock and accumulating both in [`MigrationStats`]. A cache-mode
//! server ([`Server::build_cache_mode`]) homes every key in SlowMem and
//! prices each request through a write-back FastMem front cache.

use crate::cache_mode::{CacheModeStats, FrontCache};
use crate::dynamo_like::DynamoLike;
use crate::engine::{EngineError, KvEngine};
use crate::ledger::{ChargeTape, TapeLane};
use crate::memcached_like::MemcachedLike;
use crate::profile::StoreKind;
use crate::redis_like::RedisLike;
use crate::rocks_like::RocksLike;
use crate::tiered::{load_planned, trace_stats, EpochPlanner};
use hybridmem::clock::NoiseConfig;
use hybridmem::{
    AccessKind, DegradationProfile, DetHashSet, Histogram, NoiseModel, SimClock, StackSpec, TierId,
    TierStack,
};
use mnemo_faults::{FaultPlan, ShardCrash};
use mnemo_telemetry::{AccessStatKeys, CacheStatKeys, EpochLog, Snapshot};
use mnemo_tier::TieringPolicy;
use ycsb::{AccessEvent, Op, Trace};

/// Initial data placement for a run — the paper's `numactl` binding plus
/// Mnemo's per-key static placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Everything on the DRAM node (best-case baseline).
    AllFast,
    /// Everything on the throttled node (worst-case baseline).
    AllSlow,
    /// The listed keys in FastMem, the rest in SlowMem.
    FastSet(DetHashSet<u64>),
}

impl Placement {
    /// The tier a key lands in under this placement.
    pub fn tier_of(&self, key: u64) -> TierId {
        match self {
            Placement::AllFast => TierId::FAST,
            Placement::AllSlow => TierId::SLOW,
            Placement::FastSet(set) => {
                if set.contains(&key) {
                    TierId::FAST
                } else {
                    TierId::SLOW
                }
            }
        }
    }

    /// Convenience: the first `n` keys of `order` go to FastMem.
    pub fn fast_prefix(order: &[u64], n: usize) -> Placement {
        Placement::FastSet(order.iter().take(n).copied().collect())
    }
}

/// One timed request (for model fitting and error analysis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSample {
    /// Key requested.
    pub key: u64,
    /// Operation type.
    pub op: Op,
    /// Simulated service time in nanoseconds.
    pub service_ns: f64,
}

/// The result of one measured run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Store that served the run.
    pub store: StoreKind,
    /// Workload name.
    pub workload: String,
    /// Requests served.
    pub requests: usize,
    /// Total simulated runtime in nanoseconds.
    pub runtime_ns: f64,
    /// Read count.
    pub reads: u64,
    /// Write count.
    pub writes: u64,
    /// Total nanoseconds across reads.
    pub read_ns_total: f64,
    /// Total nanoseconds across writes.
    pub write_ns_total: f64,
    /// Read service-time distribution.
    pub read_hist: Histogram,
    /// Write service-time distribution.
    pub write_hist: Histogram,
    /// Per-request samples, in trace order. `None` for a run that did
    /// not keep them: each lane of a paired walk, whose samples
    /// [`ChargeTape::samples`] derives on demand, and a split replayed
    /// from a tape.
    pub samples: Option<Vec<RequestSample>>,
}

impl RunReport {
    /// A report with nothing recorded yet, sized for `trace`, that
    /// keeps per-request samples.
    pub(crate) fn empty(store: StoreKind, trace: &Trace) -> RunReport {
        RunReport {
            samples: Some(Vec::with_capacity(trace.len())),
            ..RunReport::unsampled(store, trace)
        }
    }

    /// A report with nothing recorded yet that keeps totals and
    /// histograms only.
    pub(crate) fn unsampled(store: StoreKind, trace: &Trace) -> RunReport {
        RunReport {
            store,
            workload: trace.name.clone(),
            requests: trace.len(),
            runtime_ns: 0.0,
            reads: 0,
            writes: 0,
            read_ns_total: 0.0,
            write_ns_total: 0.0,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
            samples: None,
        }
    }

    /// A report re-derived from per-request samples in trace order, with
    /// the runtime accumulated through a [`SimClock`] exactly as a run's
    /// clock accumulates it.
    pub(crate) fn from_samples(
        store: StoreKind,
        trace: &Trace,
        samples: impl IntoIterator<Item = RequestSample>,
    ) -> RunReport {
        let mut report = RunReport::empty(store, trace);
        let mut clock = SimClock::new();
        for s in samples {
            clock.advance(s.service_ns);
            report.record(s.key, s.op, s.service_ns);
        }
        report.runtime_ns = clock.now_ns() as f64;
        report
    }

    /// Account one served request of `ns` (the runtime is the clock's,
    /// set when the run ends).
    pub(crate) fn record(&mut self, key: u64, op: Op, ns: f64) {
        match op {
            Op::Read => {
                self.reads += 1;
                self.read_ns_total += ns;
                self.read_hist.record(ns);
            }
            Op::Update => {
                self.writes += 1;
                self.write_ns_total += ns;
                self.write_hist.record(ns);
            }
        }
        if let Some(samples) = self.samples.as_mut() {
            samples.push(RequestSample {
                key,
                op,
                service_ns: ns,
            });
        }
    }

    /// Overall throughput in operations per second.
    pub fn throughput_ops_s(&self) -> f64 {
        if self.runtime_ns == 0.0 {
            return 0.0;
        }
        self.requests as f64 / (self.runtime_ns / 1e9)
    }

    /// Mean read service time (ns).
    pub fn avg_read_ns(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_ns_total / self.reads as f64
        }
    }

    /// Mean write service time (ns).
    pub fn avg_write_ns(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.write_ns_total / self.writes as f64
        }
    }

    /// Mean service time over all requests (the paper's "Average latency
    /// to service a request from the client perspective", Fig. 8c).
    pub fn avg_latency_ns(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.runtime_ns / self.requests as f64
        }
    }

    /// Tail latency across *all* requests (Figs. 8d/8e): a merged view of
    /// the read and write histograms.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut merged = self.read_hist.clone();
        merged.merge(&self.write_hist);
        merged.quantile(q)
    }
}

/// Migration accounting of one run with epoch re-planning.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationStats {
    /// Epoch re-plans executed.
    pub epochs: u64,
    /// Keys actually moved between tiers.
    pub moved_keys: u64,
    /// Logical bytes moved.
    pub moved_bytes: u64,
    /// Total nanoseconds charged to the run's clock for moves: copy
    /// costs plus backoff delays.
    pub migration_ns: f64,
    /// Move attempts re-issued after an injected failure.
    pub retries: u64,
    /// Injected move failures (each failed attempt counts once).
    pub failures: u64,
    /// Moves abandoned after exhausting the retry budget; the key stays
    /// where it was.
    pub fallbacks: u64,
    /// The share of `migration_ns` spent in backoff delays.
    pub retry_ns: f64,
}

/// The two reports and the charge tape of one [`Server::run_paired`]
/// walk.
#[derive(Debug, Clone)]
pub struct PairedRun {
    /// The run as placed: bit-identical to [`Server::run`] in every
    /// total and histogram; its samples come from the tape.
    pub own: RunReport,
    /// The run with every key in the alternative tier: bit-identical to
    /// `run` on a server built with all data there and the alternative
    /// noise; its samples come from the tape.
    pub alt: RunReport,
    /// Each request's unperturbed charge in both lanes: the ledger, the
    /// lanes' samples and every other split of the keys between the two
    /// tiers replay from it.
    pub tape: ChargeTape,
}

/// Why [`Server::run_paired`] declined. Each but the last names
/// something that makes a request's charge depend on more than its own
/// key's tier, so one walk could not stand for two runs; the last is a
/// trace the charge tape cannot record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairedDecline {
    /// A FastMem front cache is installed (cache mode): evictions and
    /// write-backs make a request's charge depend on other keys.
    CacheMode,
    /// A degradation profile is installed: device speed varies with
    /// simulated time, and the two lanes' clocks differ.
    Degradation,
    /// A crash schedule is installed: crashes fire at lane-specific
    /// clock readings and clear the shared LLC.
    CrashSchedule,
    /// Epoch re-planning is on: migrations move keys between tiers and
    /// charge copies mid-run.
    EpochPlanner,
    /// The alternative tier is not part of this server's stack.
    UnknownTier(TierId),
    /// The alternative tier cannot hold the whole dataset, so a run with
    /// all data there does not exist.
    AltCapacity {
        /// Bytes the engine holds across all tiers.
        needed: u64,
        /// The alternative tier's capacity.
        capacity: u64,
    },
    /// A request's key needs more than the 31 bits the charge tape packs
    /// it into.
    KeySpace {
        /// The first such key in the trace.
        key: u64,
    },
}

impl std::fmt::Display for PairedDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PairedDecline::CacheMode => write!(f, "a FastMem front cache is installed"),
            PairedDecline::Degradation => write!(f, "a degradation profile is installed"),
            PairedDecline::CrashSchedule => write!(f, "a crash schedule is installed"),
            PairedDecline::EpochPlanner => write!(f, "epoch re-planning is on"),
            PairedDecline::UnknownTier(tier) => write!(f, "no tier {tier} in the stack"),
            PairedDecline::AltCapacity { needed, capacity } => write!(
                f,
                "the alternative tier holds {capacity} bytes, the dataset needs {needed}"
            ),
            PairedDecline::KeySpace { key } => {
                write!(f, "key {key} needs more than the tape's 31 bits")
            }
        }
    }
}

impl std::error::Error for PairedDecline {}

/// A server instance: one engine + measurement jitter.
pub struct Server {
    engine: Box<dyn KvEngine>,
    noise: NoiseModel,
    store: StoreKind,
    /// Whether a degradation profile is installed (guards the per-request
    /// sim-time push so unfaulted runs stay on the original fast path).
    degraded: bool,
    /// Crash schedule for this server, sorted by crash time.
    crashes: Vec<ShardCrash>,
    /// Epoch re-planning; `None` keeps the placement static, with no
    /// per-request policy or counter work.
    planner: Option<EpochPlanner>,
    /// Cache mode's FastMem front cache; `None` charges every request
    /// straight through the engine.
    cache: Option<FrontCache>,
    migration: MigrationStats,
    /// Per-tier telemetry follows the paper's names (`kv.fast`,
    /// `kv.slow`) for a statically placed server ([`Server::build_with`]),
    /// and the hierarchy's tier names (`kv.tier.<name>`) for a
    /// policy-placed one ([`Server::build_tiered`]).
    paper_names: bool,
}

/// Instantiate an engine of `kind` over a fresh memory system.
pub fn make_engine(kind: StoreKind, spec: StackSpec) -> Result<Box<dyn KvEngine>, EngineError> {
    let mem = TierStack::new(spec)?;
    Ok(match kind {
        StoreKind::Redis => Box::new(RedisLike::new(mem)),
        StoreKind::Memcached => Box::new(MemcachedLike::new(mem)),
        StoreKind::Dynamo => Box::new(DynamoLike::new(mem)),
        StoreKind::Rocks => Box::new(RocksLike::new(mem)),
    })
}

impl Server {
    /// Build a server on the paper's testbed spec, load the trace's
    /// dataset under `placement`, with measurement noise disabled.
    pub fn build(
        kind: StoreKind,
        trace: &Trace,
        placement: Placement,
    ) -> Result<Server, EngineError> {
        Server::build_with(
            kind,
            StackSpec::paper_testbed(),
            NoiseConfig::disabled(),
            trace,
            placement,
        )
    }

    /// Fully parameterised constructor.
    pub fn build_with(
        kind: StoreKind,
        spec: StackSpec,
        noise: NoiseConfig,
        trace: &Trace,
        placement: Placement,
    ) -> Result<Server, EngineError> {
        let mut engine = make_engine(kind, spec)?;
        for (key, &bytes) in trace.sizes.iter().enumerate() {
            engine.load(key as u64, bytes, placement.tier_of(key as u64))?;
        }
        Ok(Server::assemble(engine, kind, noise, None, true))
    }

    /// Build over an N-tier hierarchy. `policy` places the trace's
    /// dataset from its whole-run per-key stats; `epoch_requests > 0`
    /// makes it re-plan (and the server charge migrations) every that
    /// many requests, while 0 keeps the placement static.
    pub fn build_tiered(
        kind: StoreKind,
        spec: StackSpec,
        noise: NoiseConfig,
        trace: &Trace,
        mut policy: Box<dyn TieringPolicy>,
        epoch_requests: u64,
    ) -> Result<Server, EngineError> {
        let stats = trace_stats(trace);
        let plan = policy.place(&stats, &spec);
        let mut engine = make_engine(kind, spec)?;
        load_planned(engine.as_mut(), &stats, &plan)?;
        let planner =
            (epoch_requests > 0).then(|| EpochPlanner::new(policy, epoch_requests, trace));
        Ok(Server::assemble(engine, kind, noise, planner, false))
    }

    /// Build a cache-mode server: every key of the trace homes in
    /// SlowMem behind a write-back FastMem object cache of
    /// `fast_capacity_bytes`, with measurement noise disabled.
    pub fn build_cache_mode(
        kind: StoreKind,
        spec: StackSpec,
        trace: &Trace,
        fast_capacity_bytes: u64,
    ) -> Result<Server, EngineError> {
        let mut server = Server::build_with(
            kind,
            spec,
            NoiseConfig::disabled(),
            trace,
            Placement::AllSlow,
        )?;
        server.cache = Some(FrontCache::new(fast_capacity_bytes));
        Ok(server)
    }

    pub(crate) fn assemble(
        engine: Box<dyn KvEngine>,
        store: StoreKind,
        noise: NoiseConfig,
        planner: Option<EpochPlanner>,
        paper_names: bool,
    ) -> Server {
        Server {
            engine,
            noise: NoiseModel::new(noise),
            store,
            degraded: false,
            crashes: Vec::new(),
            planner,
            cache: None,
            migration: MigrationStats::default(),
            paper_names,
        }
    }

    /// Front-cache statistics of the most recent run; `None` unless the
    /// server was built by [`Self::build_cache_mode`].
    pub fn cache_mode_stats(&self) -> Option<CacheModeStats> {
        self.cache.as_ref().map(FrontCache::stats)
    }

    /// Migration accounting of the most recent run (all zero for a
    /// static placement).
    pub fn migration_stats(&self) -> MigrationStats {
        self.migration
    }

    /// Install (or clear) a time-varying device degradation profile.
    /// While installed, every request pushes the sim clock into the
    /// memory system before being served, so accesses and reservations
    /// see the profile's windows at the right virtual time.
    pub fn set_degradation(&mut self, profile: Option<DegradationProfile>) {
        self.degraded = profile.is_some();
        self.engine.memory_mut().set_degradation(profile);
        if !self.degraded {
            self.engine.memory_mut().set_now_ns(0);
        }
    }

    /// Install a crash schedule (sorted by time; [`FaultPlan::shard_crashes`]
    /// returns it sorted). When the run's sim clock reaches a scheduled
    /// crash the server charges the restart plus per-key rebuild cost and
    /// restarts with a cold cache. Each crash fires at most once per run.
    pub fn set_crash_schedule(&mut self, crashes: Vec<ShardCrash>) {
        self.crashes = crashes;
    }

    /// Install a fault plan on a standalone server: degradation windows,
    /// shard-0 crashes and, for an epoch-planned server, the seeded
    /// migration-failure schedule with the plan's retry policy. Sharded
    /// clusters install per-shard schedules instead.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        let profile = plan.degradation_profile();
        self.set_degradation(if profile.is_empty() {
            None
        } else {
            Some(profile)
        });
        self.set_crash_schedule(plan.shard_crashes(0));
        if let Some(planner) = self.planner.as_mut() {
            planner.set_faults(plan.migration_faults(), plan.backoff);
        }
    }

    /// Re-place the dataset (static placement between runs; unmeasured).
    pub fn apply_placement(
        &mut self,
        trace: &Trace,
        placement: &Placement,
    ) -> Result<(), EngineError> {
        // Migrate slow->fast second so the fast tier never holds both the
        // outgoing and incoming working set at once.
        for tier in [TierId::SLOW, TierId::FAST] {
            for key in 0..trace.keys() {
                if placement.tier_of(key) == tier {
                    self.engine.migrate(key, tier)?;
                }
            }
        }
        Ok(())
    }

    /// Execute the trace with client-side pipelining of `depth`
    /// outstanding requests (`redis-cli --pipe`-style): the fixed per-op
    /// cost — network round-trip, protocol parsing, event-loop dispatch —
    /// amortises across the batch, while the memory time of each request
    /// is still paid in full. Deep pipelines therefore *increase* a
    /// workload's hybrid-memory sensitivity (see the `pipelining`
    /// experiment). `depth == 1` is exactly [`Self::run`].
    pub fn run_pipelined(&mut self, trace: &Trace, depth: u32) -> RunReport {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        let amortised_away = self.engine.profile().fixed_op_ns * (1.0 - 1.0 / depth as f64);
        // Rescale every sample and re-derive the aggregates.
        let samples = self
            .run(trace)
            .samples
            .into_iter()
            .flatten()
            .map(|s| RequestSample {
                service_ns: (s.service_ns - amortised_away).max(0.0),
                ..s
            });
        RunReport::from_samples(self.store, trace, samples)
    }

    /// Execute the trace and report measurements. Measurement state
    /// (caches, device stats) is reset first, as between the paper's runs.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        self.run_with_tap(trace, &mut |_| {})
    }

    /// [`Self::run`] with an event tap: the observer is invoked once per
    /// executed request with the key, operation and record size — the
    /// feed a streaming profiler consumes. The tap deliberately does
    /// *not* see service times: Mnemo's online mode, like its offline
    /// mode, works from the access pattern alone, so anything a profiler
    /// learns here it could equally learn from a production server's
    /// request log.
    pub fn run_with_tap(&mut self, trace: &Trace, tap: &mut dyn FnMut(AccessEvent)) -> RunReport {
        self.run_instrumented(trace, tap, None)
    }

    /// [`Self::run`] with full telemetry: rolls an epoch snapshot every
    /// `epoch_len` requests (0 = one epoch for the whole run) recording
    /// per-request service times, tier hits, LLC hit/miss deltas and
    /// per-tier device counters. All recorded quantities are sim-domain,
    /// so the returned snapshots export byte-identically under any
    /// `--jobs` value.
    pub fn run_telemetered(&mut self, trace: &Trace, epoch_len: u64) -> (RunReport, Vec<Snapshot>) {
        let mut log = EpochLog::new(epoch_len);
        let report = self.run_instrumented(trace, &mut |_| {}, Some(&mut log));
        (report, log.finish())
    }

    /// Per-tier `(hit counter, device counters)` metric names, indexed
    /// by tier.
    fn tier_metric_keys(&self) -> Vec<(String, AccessStatKeys)> {
        if self.paper_names {
            return vec![
                (
                    "kv.tier.fast_hits".to_string(),
                    AccessStatKeys::new("kv.fast"),
                ),
                (
                    "kv.tier.slow_hits".to_string(),
                    AccessStatKeys::new("kv.slow"),
                ),
            ];
        }
        let spec = self.engine.memory().spec();
        spec.tiers
            .iter()
            .map(|t| {
                let prefix = format!("kv.tier.{}", t.name);
                (format!("{prefix}.hits"), AccessStatKeys::new(&prefix))
            })
            .collect()
    }

    /// One epoch re-plan: the policy turns the epoch's per-key stats
    /// into desired tiers and every actual move's copy cost, plus the
    /// backoff of any injected failure, is charged to the clock.
    fn run_epoch(&mut self, clock: &mut SimClock, telemetry: &mut Option<&mut EpochLog>) {
        let Some(planner) = self.planner.as_mut() else {
            return;
        };
        if self.degraded {
            self.engine.memory_mut().set_now_ns(clock.now_ns());
        }
        let before = self.migration;
        let epoch_ns = planner.replan(self.engine.as_mut(), clock.now_ns(), &mut self.migration);
        clock.advance(epoch_ns);
        if let Some(log) = telemetry.as_deref_mut() {
            let now = self.migration;
            let tel = log.recorder();
            tel.count("kv.tier.epochs", 1);
            tel.count("kv.tier.moved_keys", now.moved_keys - before.moved_keys);
            tel.count("kv.tier.moved_bytes", now.moved_bytes - before.moved_bytes);
            tel.gauge("kv.tier.migration_ns", epoch_ns);
            tel.count("kv.tier.retries", now.retries - before.retries);
            tel.count(
                "kv.fault.migration_failures",
                now.failures - before.failures,
            );
            tel.count("kv.tier.fallbacks", now.fallbacks - before.fallbacks);
            if now.retry_ns > before.retry_ns {
                tel.gauge("kv.tier.retry_ns", now.retry_ns - before.retry_ns);
            }
            let mem = self.engine.memory();
            for (tier, def) in mem.tier_ids().zip(&mem.spec().tiers) {
                let name = format!("kv.tier.{}.occupancy_bytes", def.name);
                tel.gauge(&name, mem.used(tier) as f64);
            }
        }
    }

    /// Why a paired run against tier `alt` would not be exact, if it
    /// would not.
    fn paired_decline(&self, alt: TierId) -> Option<PairedDecline> {
        let mem = self.engine.memory();
        if self.cache.is_some() {
            return Some(PairedDecline::CacheMode);
        }
        if self.degraded {
            return Some(PairedDecline::Degradation);
        }
        if !self.crashes.is_empty() {
            return Some(PairedDecline::CrashSchedule);
        }
        if self.planner.is_some() {
            return Some(PairedDecline::EpochPlanner);
        }
        if alt.index() >= mem.num_tiers() {
            return Some(PairedDecline::UnknownTier(alt));
        }
        let needed = mem.tier_ids().map(|t| mem.used(t)).sum::<u64>();
        let capacity = mem.capacity(alt);
        (needed > capacity).then_some(PairedDecline::AltCapacity { needed, capacity })
    }

    /// Execute the trace once and report it twice: as placed, exactly as
    /// [`Self::run`] would, and as if every key lived in tier `alt`,
    /// under its own noise stream `alt_noise` and clock. Each request
    /// costs one key lookup and one LLC probe — the LLC is keyed by
    /// object, so its hits are the same in either tier — and goes
    /// through the engine's cost formula once, priced in both tiers.
    /// The walk keeps only totals, histograms and, per request, the
    /// 16-byte `(own, alt)` charge and the 4-byte packed request: the
    /// [`ChargeTape`], from which the ledger, the lanes' samples and any
    /// split replay.
    ///
    /// Declines, changing nothing, when something makes a request's
    /// charge depend on more than its key's tier (see [`PairedDecline`]).
    pub fn run_paired(
        &mut self,
        trace: &Trace,
        alt: TierId,
        alt_noise: NoiseConfig,
    ) -> Result<PairedRun, PairedDecline> {
        if let Some(decline) = self.paired_decline(alt) {
            return Err(decline);
        }
        let mem = self.engine.memory();
        let used = mem.tier_ids().map(|t| mem.used(t)).sum::<u64>();
        // Every loaded key takes at least one byte, so the own lane has
        // one tier exactly when that tier holds all the bytes.
        let own_tier = mem.tier_ids().find(|&t| mem.used(t) == used);
        let lanes = [
            TapeLane {
                tier: own_tier,
                noise: self.noise.config(),
                start: self.noise.position(),
            },
            TapeLane {
                tier: Some(alt),
                noise: alt_noise,
                start: 0,
            },
        ];
        let mut tape = ChargeTape::new(self.store, mem.spec(), trace, lanes)?;
        self.engine.reset_measurement_state();
        self.migration = MigrationStats::default();
        let mut alt_noise = NoiseModel::new(alt_noise);
        let (mut own_clock, mut alt_clock) = (SimClock::new(), SimClock::new());
        let mut own = RunReport::unsampled(self.store, trace);
        let mut alt_run = RunReport::unsampled(self.store, trace);
        for r in &trace.requests {
            let kind = match r.op {
                Op::Read => AccessKind::Read,
                Op::Update => AccessKind::Write,
            };
            let raw = self
                .engine
                .charge_pair(r.key, kind, alt)
                // mnemo-lint: allow(R001, "Server::build loads every key of the trace before run, so requests cannot hit an unloaded key")
                .expect("trace references unloaded key");
            tape.push(raw.own, raw.alt);
            let own_ns = self.noise.perturb(raw.own);
            let alt_ns = alt_noise.perturb(raw.alt);
            own_clock.advance(own_ns);
            alt_clock.advance(alt_ns);
            own.record(r.key, r.op, own_ns);
            alt_run.record(r.key, r.op, alt_ns);
        }
        own.runtime_ns = own_clock.now_ns() as f64;
        alt_run.runtime_ns = alt_clock.now_ns() as f64;
        Ok(PairedRun {
            own,
            alt: alt_run,
            tape,
        })
    }

    fn run_instrumented(
        &mut self,
        trace: &Trace,
        tap: &mut dyn FnMut(AccessEvent),
        mut telemetry: Option<&mut EpochLog>,
    ) -> RunReport {
        self.engine.reset_measurement_state();
        self.migration = MigrationStats::default();
        if let Some(planner) = self.planner.as_mut() {
            planner.reset();
        }
        if let Some(cache) = self.cache.as_mut() {
            cache.reset_stats();
        }
        let mut clock = SimClock::new();
        let mut report = RunReport::empty(self.store, trace);
        let mut next_crash = 0usize;
        // Metric names for the per-request telemetry block, formatted
        // once per run instead of ten times per request.
        let stat_keys = telemetry
            .as_ref()
            .map(|_| (self.tier_metric_keys(), CacheStatKeys::new("kv.llc")));
        for (seq, r) in trace.requests.iter().enumerate() {
            if self.planner.as_ref().is_some_and(|p| p.is_due(seq)) {
                self.run_epoch(&mut clock, &mut telemetry);
            }
            // Fire any crash whose time has come: charge the recovery
            // cost and restart with a cold cache. Crash costs are part of
            // the measured runtime whether or not telemetry observes them.
            while next_crash < self.crashes.len()
                && clock.now_ns() >= self.crashes[next_crash].at_ns
            {
                let crash = self.crashes[next_crash];
                next_crash += 1;
                let recovery = crash.recovery_ns(self.engine.key_count());
                clock.advance(recovery);
                self.engine.memory_mut().clear_cache();
                if let Some(log) = telemetry.as_deref_mut() {
                    let tel = log.recorder();
                    tel.count("kv.fault.shard_crashes", 1);
                    tel.gauge("kv.fault.recovery_ns", recovery);
                }
            }
            if self.degraded {
                self.engine.memory_mut().set_now_ns(clock.now_ns());
            }
            let degraded_now = self.degraded
                && telemetry.is_some()
                && self
                    .engine
                    .memory()
                    .degradation()
                    .is_some_and(|p| p.is_active_at(clock.now_ns()));
            // Pre-op state for telemetry deltas; skipped entirely when no
            // telemetry is attached so `run` stays as cheap as before.
            let pre = telemetry.as_ref().map(|_| {
                let tier = self.engine.placement_of(r.key);
                let mem = self.engine.memory();
                let dev = tier.map(|t| *mem.tier_stats(t));
                (tier, dev, mem.cache_stats())
            });
            let raw = match (self.cache.as_mut(), r.op) {
                (Some(cache), op) => cache.serve(self.engine.as_mut(), r.key, op),
                (None, Op::Read) => self.engine.get(r.key),
                (None, Op::Update) => self.engine.put(r.key),
            }
            // mnemo-lint: allow(R001, "Server::build loads every key of the trace before run, so requests cannot hit an unloaded key")
            .expect("trace references unloaded key");
            tap(AccessEvent {
                key: r.key,
                op: r.op,
                bytes: trace.sizes[r.key as usize],
            });
            if let Some(planner) = self.planner.as_mut() {
                planner.observe(r.key, r.op, seq);
            }
            let ns = self.noise.perturb(raw);
            clock.advance(ns);
            if let (Some(log), Some((tier, pre_dev, pre_cache))) = (telemetry.as_deref_mut(), pre) {
                let mem = self.engine.memory();
                let cache_delta = mem.cache_stats().since(&pre_cache);
                let tel = log.recorder();
                tel.count("kv.requests", 1);
                tel.count(
                    match r.op {
                        Op::Read => "kv.reads",
                        Op::Update => "kv.writes",
                    },
                    1,
                );
                tel.observe("kv.request.service_ns", ns);
                if degraded_now {
                    tel.count("kv.fault.degraded_requests", 1);
                }
                // stat_keys is Some exactly when telemetry is, so this
                // if-let always enters inside the telemetry block.
                if let Some((tier_keys, llc_keys)) = stat_keys.as_ref() {
                    if let (Some(tier), Some(pre_dev)) = (tier, pre_dev) {
                        if let Some((hit_name, dev_keys)) = tier_keys.get(tier.index()) {
                            tel.count(hit_name, 1);
                            let dev_delta = mem.tier_stats(tier).since(&pre_dev);
                            tel.record_access_stats_with(dev_keys, &dev_delta);
                        }
                    }
                    tel.record_cache_stats_with(llc_keys, &cache_delta);
                }
                log.tick();
            }
            report.record(r.key, r.op, ns);
        }
        report.runtime_ns = clock.now_ns() as f64;
        report
    }

    /// The engine (for inspection).
    pub fn engine(&self) -> &dyn KvEngine {
        self.engine.as_ref()
    }

    /// Which store this server simulates.
    pub fn store(&self) -> StoreKind {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::WorkloadSpec;

    fn trace() -> Trace {
        WorkloadSpec::trending().scaled(200, 3_000).generate(42)
    }

    #[test]
    fn fast_beats_slow_for_every_store() {
        let t = trace();
        for kind in StoreKind::ALL {
            let fast = Server::build(kind, &t, Placement::AllFast).unwrap().run(&t);
            let slow = Server::build(kind, &t, Placement::AllSlow).unwrap().run(&t);
            assert!(
                fast.throughput_ops_s() > slow.throughput_ops_s(),
                "{kind}: fast {} <= slow {}",
                fast.throughput_ops_s(),
                slow.throughput_ops_s()
            );
        }
    }

    #[test]
    fn report_accounting_is_consistent() {
        let t = WorkloadSpec::edit_thumbnail()
            .scaled(100, 2_000)
            .generate(1);
        let rep = Server::build(StoreKind::Redis, &t, Placement::AllFast)
            .unwrap()
            .run(&t);
        assert_eq!(rep.reads + rep.writes, rep.requests as u64);
        let samples = rep.samples.as_deref().unwrap();
        assert_eq!(samples.len(), rep.requests);
        // Runtime is the sum of the sample times, each rounded to whole
        // nanoseconds as the clock rounds it.
        let rounded: u128 = samples
            .iter()
            .map(|s| hybridmem::num::u128_from_f64(s.service_ns))
            .sum();
        assert_eq!(rep.runtime_ns.to_bits(), (rounded as f64).to_bits());
        assert!(rep.avg_read_ns() > 0.0);
        assert!(rep.avg_write_ns() > 0.0);
        assert!(rep.latency_quantile(0.99) >= rep.latency_quantile(0.5));
    }

    #[test]
    fn partial_placement_lands_between_baselines() {
        let t = trace();
        let fast = Server::build(StoreKind::Redis, &t, Placement::AllFast)
            .unwrap()
            .run(&t);
        let slow = Server::build(StoreKind::Redis, &t, Placement::AllSlow)
            .unwrap()
            .run(&t);
        // Hottest half of the keys (by trace counts) in FastMem.
        let counts = t.key_counts();
        let mut order: Vec<u64> = (0..t.keys()).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(counts[k as usize].0 + counts[k as usize].1));
        let placement = Placement::fast_prefix(&order, 100);
        let mid = Server::build(StoreKind::Redis, &t, placement)
            .unwrap()
            .run(&t);
        assert!(mid.throughput_ops_s() < fast.throughput_ops_s());
        assert!(mid.throughput_ops_s() > slow.throughput_ops_s());
    }

    #[test]
    fn apply_placement_matches_fresh_build() {
        let t = trace();
        let placement = Placement::FastSet((0..100).collect());
        let fresh = Server::build(StoreKind::Redis, &t, placement.clone())
            .unwrap()
            .run(&t);
        let mut server = Server::build(StoreKind::Redis, &t, Placement::AllSlow).unwrap();
        server.apply_placement(&t, &placement).unwrap();
        let migrated = server.run(&t);
        let a = fresh.throughput_ops_s();
        let b = migrated.throughput_ops_s();
        assert!((a - b).abs() / a < 1e-6, "fresh {a} vs migrated {b}");
    }

    #[test]
    fn noise_changes_measurements_but_not_much() {
        let t = trace();
        let clean = Server::build(StoreKind::Redis, &t, Placement::AllFast)
            .unwrap()
            .run(&t);
        let noisy = Server::build_with(
            StoreKind::Redis,
            StackSpec::paper_testbed(),
            NoiseConfig::default_jitter(7),
            &t,
            Placement::AllFast,
        )
        .unwrap()
        .run(&t);
        assert_ne!(clean.runtime_ns, noisy.runtime_ns);
        let rel = (clean.runtime_ns - noisy.runtime_ns).abs() / clean.runtime_ns;
        assert!(rel < 0.01, "relative drift {rel}");
    }

    #[test]
    fn pipelining_amortises_fixed_cost_and_raises_sensitivity() {
        let t = trace();
        let sensitivity = |depth: u32| {
            let fast = Server::build(StoreKind::Redis, &t, Placement::AllFast)
                .unwrap()
                .run_pipelined(&t, depth);
            let slow = Server::build(StoreKind::Redis, &t, Placement::AllSlow)
                .unwrap()
                .run_pipelined(&t, depth);
            fast.throughput_ops_s() / slow.throughput_ops_s()
        };
        let shallow = sensitivity(1);
        let deep = sensitivity(32);
        assert!(
            deep > shallow * 1.5,
            "deep pipelines expose memory time: depth-32 {deep:.2}x vs depth-1 {shallow:.2}x"
        );
        // Depth 1 is identical to plain run, on every store, with noise
        // off and on.
        for kind in StoreKind::ALL {
            for noise in [NoiseConfig::disabled(), NoiseConfig::default_jitter(7)] {
                let build = || {
                    let spec = StackSpec::paper_testbed();
                    Server::build_with(kind, spec, noise, &t, Placement::AllFast).unwrap()
                };
                let a = build().run(&t);
                let b = build().run_pipelined(&t, 1);
                let cell = format!("{kind} sigma {}", noise.relative_sigma);
                assert_eq!(a.runtime_ns.to_bits(), b.runtime_ns.to_bits(), "{cell}");
                assert_eq!(a.read_hist, b.read_hist, "{cell}");
                assert_eq!(a.write_hist, b.write_hist, "{cell}");
                assert_eq!(a.samples, b.samples, "{cell}");
            }
        }
    }

    #[test]
    fn tape_lanes_continue_the_servers_noise_stream() {
        use crate::ledger::ReplayDecline;
        let t = trace();
        let noise = NoiseConfig::default_jitter(3);
        let build = |placement| {
            let spec = StackSpec::paper_testbed();
            Server::build_with(StoreKind::Redis, spec, noise, &t, placement).unwrap()
        };
        // A server's stream continues across runs: the walk's own lane,
        // and the samples its tape replays, are a second run's.
        let mut twice = build(Placement::AllFast);
        twice.run(&t);
        let second = twice.run(&t);
        let mut walked = build(Placement::AllFast);
        walked.run(&t);
        let alt_noise = NoiseConfig::default_jitter(4);
        let run = walked.run_paired(&t, TierId::SLOW, alt_noise).unwrap();
        assert_eq!(run.own.runtime_ns.to_bits(), second.runtime_ns.to_bits());
        assert_eq!(run.tape.samples(TierId::FAST), second.samples);
        // A walk from a mixed placement prices no tier key by key but
        // the alternative one.
        let mixed = Placement::FastSet((0..100).collect());
        let run = build(mixed.clone())
            .run_paired(&t, TierId::SLOW, alt_noise)
            .unwrap();
        assert_eq!(run.tape.samples(TierId::FAST), None);
        let spec = StackSpec::paper_testbed();
        assert_eq!(
            run.tape
                .replay(StoreKind::Redis, &spec, &t, noise, &mixed)
                .unwrap_err(),
            ReplayDecline::Paired(PairedDecline::UnknownTier(TierId::FAST))
        );
        let all_slow = run
            .tape
            .replay(StoreKind::Redis, &spec, &t, alt_noise, &Placement::AllSlow)
            .unwrap();
        assert_eq!(all_slow.runtime_ns.to_bits(), run.alt.runtime_ns.to_bits());
    }

    #[test]
    fn event_tap_sees_every_request_without_perturbing_the_run() {
        let t = trace();
        let clean = Server::build(StoreKind::Redis, &t, Placement::AllFast)
            .unwrap()
            .run(&t);
        let mut events = Vec::new();
        let tapped = Server::build(StoreKind::Redis, &t, Placement::AllFast)
            .unwrap()
            .run_with_tap(&t, &mut |e| events.push(e));
        assert_eq!(events.len(), t.len());
        for (e, r) in events.iter().zip(&t.requests) {
            assert_eq!((e.key, e.op), (r.key, r.op));
            assert_eq!(e.bytes, t.sizes[r.key as usize]);
        }
        assert_eq!(
            clean.runtime_ns, tapped.runtime_ns,
            "tap must not affect timing"
        );
    }

    #[test]
    fn telemetered_run_matches_plain_run_and_accounts_every_request() {
        let t = trace();
        let placement = Placement::FastSet((0..100).collect());
        let clean = Server::build(StoreKind::Redis, &t, placement.clone())
            .unwrap()
            .run(&t);
        let (report, snaps) = Server::build(StoreKind::Redis, &t, placement)
            .unwrap()
            .run_telemetered(&t, 1_000);
        // Telemetry must be a pure observer.
        assert_eq!(report.runtime_ns.to_bits(), clean.runtime_ns.to_bits());
        assert_eq!(snaps.len(), t.len().div_ceil(1_000));
        let sum = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
        assert_eq!(sum("kv.requests"), t.len() as u64);
        assert_eq!(sum("kv.reads"), report.reads);
        assert_eq!(sum("kv.writes"), report.writes);
        assert_eq!(
            sum("kv.tier.fast_hits") + sum("kv.tier.slow_hits"),
            t.len() as u64
        );
        assert!(sum("kv.tier.fast_hits") > 0 && sum("kv.tier.slow_hits") > 0);
        // LLC deltas accumulate to the engine's own cumulative stats.
        let hist_count: u64 = snaps
            .iter()
            .filter_map(|s| s.histogram("kv.request.service_ns"))
            .map(|h| h.count())
            .sum();
        assert_eq!(hist_count, t.len() as u64);
        assert!(sum("kv.llc.hits") + sum("kv.llc.misses") > 0);
    }

    #[test]
    fn degradation_window_slows_the_run_and_is_counted() {
        use mnemo_faults::{FaultEvent, FaultPlan};
        let t = trace();
        let clean = Server::build(StoreKind::Redis, &t, Placement::AllSlow)
            .unwrap()
            .run(&t);
        let mut server = Server::build(StoreKind::Redis, &t, Placement::AllSlow).unwrap();
        // Slow tier runs at 32x latency and 1/32 bandwidth for the whole
        // run. The LLC absorbs most device traffic, so the end-to-end
        // slowdown is modest but must be clearly visible.
        server.install_fault_plan(
            &FaultPlan::new(1)
                .with(FaultEvent::LatencySpike {
                    tier: hybridmem::TierId::SLOW,
                    start_ns: 0,
                    end_ns: u128::MAX,
                    factor: 32.0,
                })
                .with(FaultEvent::BandwidthThrottle {
                    tier: hybridmem::TierId::SLOW,
                    start_ns: 0,
                    end_ns: u128::MAX,
                    factor: 1.0 / 32.0,
                }),
        );
        let (faulted, snaps) = server.run_telemetered(&t, 0);
        assert!(
            faulted.runtime_ns > clean.runtime_ns * 1.05,
            "faulted {} vs clean {}",
            faulted.runtime_ns,
            clean.runtime_ns
        );
        let degraded: u64 = snaps
            .iter()
            .map(|s| s.counter("kv.fault.degraded_requests"))
            .sum();
        assert_eq!(degraded, t.len() as u64);
        // Clearing the plan restores the exact nominal timing.
        server.set_degradation(None);
        server.set_crash_schedule(Vec::new());
        let restored = server.run(&t);
        assert_eq!(restored.runtime_ns.to_bits(), clean.runtime_ns.to_bits());
    }

    #[test]
    fn crash_schedule_charges_recovery_once() {
        use mnemo_faults::ShardCrash;
        let t = trace();
        let clean = Server::build(StoreKind::Redis, &t, Placement::AllFast)
            .unwrap()
            .run(&t);
        let mut server = Server::build(StoreKind::Redis, &t, Placement::AllFast).unwrap();
        let crash = ShardCrash {
            at_ns: (clean.runtime_ns / 2.0) as u128,
            restart_ns: 1e6,
            rebuild_ns_per_key: 100.0,
        };
        server.set_crash_schedule(vec![crash]);
        let (crashed, snaps) = server.run_telemetered(&t, 0);
        let recovery = crash.recovery_ns(t.keys() as usize);
        assert!(
            crashed.runtime_ns > clean.runtime_ns + recovery * 0.9,
            "crashed {} clean {} recovery {}",
            crashed.runtime_ns,
            clean.runtime_ns,
            recovery
        );
        let crashes: u64 = snaps
            .iter()
            .map(|s| s.counter("kv.fault.shard_crashes"))
            .sum();
        assert_eq!(crashes, 1, "each scheduled crash fires at most once");
        // A crash scheduled beyond the end of the run never fires.
        let mut server = Server::build(StoreKind::Redis, &t, Placement::AllFast).unwrap();
        server.set_crash_schedule(vec![ShardCrash {
            at_ns: u128::MAX,
            restart_ns: 1e6,
            rebuild_ns_per_key: 0.0,
        }]);
        let r = server.run(&t);
        assert_eq!(r.runtime_ns.to_bits(), clean.runtime_ns.to_bits());
    }

    #[test]
    #[should_panic(expected = "unloaded key")]
    fn running_against_missing_keys_panics() {
        let t = trace();
        let mut bad = t.clone();
        bad.requests[0].key = 10_000; // beyond the dataset
        let _ = Server::build(StoreKind::Redis, &t, Placement::AllFast)
            .unwrap()
            .run(&bad);
    }
}
