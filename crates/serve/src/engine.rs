//! The serving engine: per-tenant warm profilers behind bounded queues,
//! a scheduler epoch driven by the offered-event count, and periodic
//! shared-capacity re-planning.
//!
//! # Determinism contract
//!
//! Every response row is a pure function of the request sequence:
//!
//! * the scheduler "tick" fires every [`ServeConfig::tick_events`]
//!   *offered* ingest calls — dropped events count too, so backpressure
//!   can never shift an epoch boundary;
//! * the tick drains the per-tenant queues as one job per tenant on the
//!   bounded [`mnemo_par::Pool`], with results reassembled in tenant
//!   admission order — byte-identical for any `--jobs N`;
//! * a tenant's advise rows fire at its *own* profiler's drift-epoch
//!   boundaries and carry its own event count, so tenant B's advice is
//!   invariant under tenant A's traffic (as long as B is not starved
//!   idle for a whole scheduler epoch — then the idle decay is B's
//!   correct behaviour, not interference);
//! * virtual time is `offered_events × ns_per_event`; fault windows are
//!   scheduled against it, never against the wall clock.
//!
//! Advise latency is the one deliberately wall-domain measurement
//! (`span.serve.advise.wall_ns` histograms, excluded from gated
//! exports).

use crate::proto::{self, EventV1, ServeError};
use kvsim::StoreKind;
use mnemo::advisor::{
    Advisor, AdvisorConfig, DegradedReason, Recommendation, ResilientRecommendation,
};
use mnemo::multi::TenantDemand;
use mnemo::sensitivity::{Baselines, SensitivityEngine};
use mnemo_codec::json::escape;
use mnemo_faults::{FaultEvent, FaultPlan};
use mnemo_stream::{Drift, StreamConfig, StreamProfiler};
use mnemo_telemetry::{Recorder, Snapshot};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use ycsb::{AccessEvent, WorkloadSpec};

/// Poison-tolerant lock: a panicked worker must not wedge the daemon,
/// so a poisoned tenant is recovered as-is (its state is still the last
/// consistent write — all mutations happen under the lock).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Store the calibration baselines are measured against.
    pub store: StoreKind,
    /// Slowdown budget for every advise, in `[0, 1]`.
    pub slo: f64,
    /// Advisor pipeline configuration (model, ordering, price factor).
    pub advisor: AdvisorConfig,
    /// Per-tenant profiler sizing (including the drift epoch length).
    pub stream: StreamConfig,
    /// Offered ingest events per scheduler tick.
    pub tick_events: u64,
    /// Bounded per-tenant queue capacity; events past it are dropped
    /// (and counted) rather than growing memory without limit.
    pub queue_cap: usize,
    /// Admission ceiling: ingest for tenants beyond this is rejected.
    pub max_tenants: usize,
    /// Shared FastMem budget split across tenants at each re-plan.
    pub share_bytes: u64,
    /// Scheduler ticks between shared-capacity re-plans.
    pub replan_every: u64,
    /// Fault plan; tenant-scoped events apply only to their tenant.
    pub faults: Option<FaultPlan>,
    /// Calibration workload size (keys) for baseline measurement.
    pub calib_keys: u64,
    /// Calibration workload size (requests).
    pub calib_requests: usize,
    /// Calibration workload seed.
    pub calib_seed: u64,
    /// Virtual nanoseconds per offered event (the serve clock).
    pub ns_per_event: u128,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            store: StoreKind::Redis,
            slo: 0.10,
            advisor: AdvisorConfig::default(),
            stream: StreamConfig::default(),
            tick_events: 2_048,
            queue_cap: 8_192,
            max_tenants: 64,
            share_bytes: 64 << 20,
            replan_every: 1,
            faults: None,
            calib_keys: 400,
            calib_requests: 6_000,
            calib_seed: 42,
            ns_per_event: 1_000,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if !(0.0..=1.0).contains(&self.slo) {
            return Err(ServeError::Usage(format!("slo {} out of [0,1]", self.slo)));
        }
        if self.tick_events == 0 {
            return Err(ServeError::Usage("tick_events must be >= 1".into()));
        }
        if self.queue_cap == 0 {
            return Err(ServeError::Usage("queue_cap must be >= 1".into()));
        }
        if self.max_tenants == 0 {
            return Err(ServeError::Usage("max_tenants must be >= 1".into()));
        }
        if self.replan_every == 0 {
            return Err(ServeError::Usage("replan_every must be >= 1".into()));
        }
        if self.ns_per_event == 0 {
            return Err(ServeError::Usage("ns_per_event must be >= 1".into()));
        }
        Ok(())
    }
}

/// A tenant-scoped crash compiled against the serve clock: at `at_ns`
/// the tenant's profiler cold-resets and its ingest drops until
/// `until_ns` (restart plus per-key rebuild of the monitored head).
#[derive(Debug, Clone, Copy)]
struct CrashWindow {
    at_ns: u128,
    until_ns: u128,
    applied: bool,
}

/// One tenant's serving state. All mutation happens under the tenant's
/// mutex; the scheduler tick hands each tenant to exactly one pool job.
struct Tenant {
    name: String,
    profiler: StreamProfiler,
    /// Drift that caused the last profiler reset, attached as the
    /// trigger of the advice emitted one epoch later (the same two-step
    /// loop as `mnemo_stream::OnlineAdvisor`, inlined here so the state
    /// dump can reach the profiler).
    pending: Option<Drift>,
    queue: VecDeque<AccessEvent>,
    offered: u64,
    dropped: u64,
    crash_dropped: u64,
    advice_rows: u64,
    baselines: Baselines,
    crashes: Vec<CrashWindow>,
    recorder: Recorder,
}

impl Tenant {
    /// The two-step drift loop over one drained event: `Initial` epochs
    /// advise, significant drift resets and advises one epoch later.
    // mnemo-lint: allow(R003, "reachable expects guard unconstructible states: estimate() never emits an empty curve")
    fn on_event(&mut self, event: &AccessEvent, advisor: &Advisor, slo: f64) -> Option<String> {
        let drift = self.profiler.observe(event)?;
        match drift {
            Drift::Initial => {
                let trigger = self.pending.take().unwrap_or(Drift::Initial);
                Some(self.advise_row(&trigger, advisor, slo))
            }
            drift if drift.is_significant() => {
                self.pending = Some(drift);
                self.profiler.reset();
                None
            }
            _ => None,
        }
    }

    /// Consult from the current sketch state; never absent. Wall-domain
    /// advise latency lands in `span.serve.advise.wall_ns`.
    // mnemo-lint: allow(R003, "fast_only's expect fires only on an empty curve, which estimate() cannot produce")
    fn advise(&mut self, advisor: &Advisor, slo: f64) -> ResilientRecommendation {
        if self.profiler.events() == 0 {
            // Cold sketch: a consultation would "succeed" on an empty
            // pattern and emit an untagged zero placement. Tag it.
            self.recorder.count("serve.advise.cold", 1);
            return empty_recommendation();
        }
        let pattern = self.profiler.approx_pattern().pattern.clone();
        let baselines = self.baselines.clone();
        self.recorder.time_wall("serve.advise", 1, || {
            match advisor.consult_with_pattern(baselines, pattern) {
                Ok(c) => c.recommend_resilient(slo),
                Err(_) => empty_recommendation(),
            }
        })
    }

    /// A fresh allocator demand from the current profiler state, for
    /// the shared-capacity re-plan. Deriving it from *current* state
    /// (instead of caching anything from the last advise) keeps the
    /// whole engine a pure function of the dumped fields, so a warm
    /// restart emits byte-identical re-plan rows; the profiler's
    /// memoised pattern is itself a pure function of that state. A
    /// demand is only the model fit plus a borrow of the pattern — no
    /// ordering, no estimate curve — which is all the shared allocator
    /// consumes.
    fn demand(&self, advisor: &Advisor) -> Option<TenantDemand<'_>> {
        if self.profiler.events() == 0 {
            return None;
        }
        let approx = self.profiler.approx_pattern();
        Some(advisor.demand_with_pattern(&self.baselines, &approx.pattern))
    }

    // mnemo-lint: allow(R003, "delegates to advise; the reachable curve expect cannot fire for non-empty estimates")
    fn advise_row(&mut self, trigger: &Drift, advisor: &Advisor, slo: f64) -> String {
        let resilient = self.advise(advisor, slo);
        self.advice_rows += 1;
        self.recorder.count("serve.advise.rows", 1);
        proto::advise_row(&self.name, self.profiler.events(), trigger, &resilient)
    }

    fn crash_active(&self, now_ns: u128) -> bool {
        self.crashes
            .iter()
            .any(|c| c.applied && now_ns < c.until_ns)
    }

    /// Apply any crash whose time has come: cold-reset once, report the
    /// outage window. Returns the rows to emit.
    fn apply_due_crashes(&mut self, now_ns: u128) -> Vec<String> {
        let mut rows = Vec::new();
        for i in 0..self.crashes.len() {
            if !self.crashes[i].applied && now_ns >= self.crashes[i].at_ns {
                self.crashes[i].applied = true;
                self.profiler.reset();
                self.pending = None;
                self.queue.clear();
                self.recorder.count("serve.crash.applied", 1);
                rows.push(proto::crash_row(
                    &self.name,
                    self.crashes[i].at_ns,
                    self.crashes[i].until_ns,
                ));
            }
        }
        rows
    }
}

/// The never-absent fallback when even consultation fails: a zero-sized
/// placement tagged as degraded.
fn empty_recommendation() -> ResilientRecommendation {
    ResilientRecommendation {
        recommendation: Recommendation {
            prefix: 0,
            fast_bytes: 0,
            fast_ratio: 0.0,
            cost_reduction: 0.0,
            est_throughput_ops_s: 0.0,
            est_slowdown: 0.0,
        },
        degraded: Some(DegradedReason::EmptyCurve),
    }
}

/// The long-lived advisor daemon state.
pub struct ServeEngine {
    config: ServeConfig,
    advisor: Advisor,
    healthy_baselines: Baselines,
    calib_trace: ycsb::Trace,
    tenants: Vec<Mutex<Tenant>>,
    names: BTreeMap<String, usize>,
    offered_total: u64,
    ticks: u64,
    journal_seq: u64,
    recorder: Recorder,
    snapshots: Vec<Snapshot>,
}

impl ServeEngine {
    /// Build the engine: validates the configuration and measures the
    /// shared healthy calibration baselines once, up front.
    pub fn new(config: ServeConfig) -> Result<ServeEngine, ServeError> {
        config.validate()?;
        if let Some(plan) = &config.faults {
            plan.validate()
                .map_err(|e| ServeError::Usage(format!("fault plan: {e}")))?;
        }
        let calib_trace = WorkloadSpec::trending()
            .scaled(config.calib_keys, config.calib_requests)
            .generate(config.calib_seed);
        let healthy_baselines =
            SensitivityEngine::new(config.advisor.spec.clone(), config.advisor.noise)
                .measure(config.store, &calib_trace)
                .map_err(|e| ServeError::Engine(format!("baseline measurement failed: {e}")))?;
        let advisor = Advisor::new(config.advisor.clone());
        Ok(ServeEngine {
            advisor,
            healthy_baselines,
            calib_trace,
            tenants: Vec::new(),
            names: BTreeMap::new(),
            offered_total: 0,
            ticks: 0,
            journal_seq: 0,
            recorder: Recorder::new(),
            snapshots: Vec::new(),
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The serve clock: virtual time derived from offered events.
    pub fn now_ns(&self) -> u128 {
        self.offered_total as u128 * self.config.ns_per_event
    }

    /// Completed scheduler ticks.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Offered ingest events (admitted, dropped, and crash-dropped).
    pub fn offered(&self) -> u64 {
        self.offered_total
    }

    /// The journal watermark: the sequence number of the last journaled
    /// request applied to this engine (0 = nothing journaled).
    pub fn journal_seq(&self) -> u64 {
        self.journal_seq
    }

    /// Advance the journal watermark (set by the front end right after
    /// each append, and by state restore / journal replay).
    pub fn set_journal_seq(&mut self, seq: u64) {
        self.journal_seq = seq;
    }

    /// Bump a daemon-level counter from the front end (journal and
    /// recovery metrics land in the same merged telemetry snapshots as
    /// the engine's own counters).
    pub(crate) fn note(&mut self, name: &'static str, n: u64) {
        self.recorder.count(name, n);
    }

    /// Admitted tenant names, in admission order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| lock(t).name.clone()).collect()
    }

    /// Look up or admit a tenant. Admission measures the tenant's
    /// baselines — against the faulted testbed when the fault plan has
    /// events scoped to (or unscoped over) this tenant.
    fn tenant_index(&mut self, name: &str) -> Result<usize, String> {
        if let Some(&i) = self.names.get(name) {
            return Ok(i);
        }
        if self.tenants.len() >= self.config.max_tenants {
            self.recorder.count("serve.admission.rejected", 1);
            return Err(format!(
                "tenant `{name}` rejected: at the {}-tenant admission ceiling",
                self.config.max_tenants
            ));
        }
        let scoped = self.config.faults.as_ref().map(|p| p.for_tenant(name));
        // Storage faults hit the journal, not the memory testbed — a
        // plan with only storage events keeps the healthy baselines.
        let baselines = match &scoped {
            Some(plan) if plan.events.iter().any(|e| !e.is_storage()) => {
                SensitivityEngine::new(self.config.advisor.spec.clone(), self.config.advisor.noise)
                    .with_fault_plan(plan.clone())
                    .measure(self.config.store, &self.calib_trace)
                    .map_err(|e| format!("baseline measurement for `{name}` failed: {e}"))?
            }
            _ => self.healthy_baselines.clone(),
        };
        // Tenant-scoped crashes compile to serve-clock outage windows;
        // unscoped crashes hit the baseline simulation above instead of
        // the serving path (they have no tenant to take down).
        let mut crashes = Vec::new();
        if let Some(plan) = &self.config.faults {
            for (i, event) in plan.events.iter().enumerate() {
                if plan.tenant_of(i) != Some(name) {
                    continue;
                }
                if let FaultEvent::ShardCrash {
                    at_ns,
                    restart_ns,
                    rebuild_ns_per_key,
                    ..
                } = event
                {
                    let recovery =
                        restart_ns + rebuild_ns_per_key * self.config.stream.top_k as f64;
                    crashes.push(CrashWindow {
                        at_ns: *at_ns,
                        until_ns: at_ns.saturating_add(recovery.max(0.0) as u128),
                        applied: false,
                    });
                }
            }
        }
        let index = self.tenants.len();
        self.tenants.push(Mutex::new(Tenant {
            name: name.to_string(),
            profiler: StreamProfiler::new(self.config.stream),
            pending: None,
            queue: VecDeque::new(),
            offered: 0,
            dropped: 0,
            crash_dropped: 0,
            advice_rows: 0,
            baselines,
            crashes,
            recorder: Recorder::new(),
        }));
        self.names.insert(name.to_string(), index);
        self.recorder.count("serve.admission.accepted", 1);
        Ok(index)
    }

    /// Offer one event. Returns the rows this event caused: admission
    /// errors, crash activations, and — when it completes a scheduler
    /// tick — the tick's advise and re-plan rows.
    // mnemo-lint: allow(R003, "the expects on this path assert parser/estimator invariants, not input-dependent states")
    pub fn ingest(&mut self, event: EventV1) -> Result<Vec<String>, ServeError> {
        let mut rows = Vec::new();
        self.offered_total += 1;
        self.recorder.count("serve.ingest.offered", 1);
        let now = self.now_ns();
        match self.tenant_index(&event.tenant) {
            Err(reason) => {
                self.recorder.count("serve.ingest.rejected", 1);
                rows.push(proto::error_row(&reason));
            }
            Ok(index) => {
                let mut tenant = lock(&self.tenants[index]);
                tenant.offered += 1;
                rows.extend(tenant.apply_due_crashes(now));
                if tenant.crash_active(now) {
                    tenant.crash_dropped += 1;
                    tenant.recorder.count("serve.ingest.crash_dropped", 1);
                } else if tenant.queue.len() >= self.config.queue_cap {
                    tenant.dropped += 1;
                    tenant.recorder.count("serve.ingest.dropped", 1);
                } else {
                    tenant.queue.push_back(AccessEvent {
                        key: event.key,
                        op: event.op,
                        bytes: event.bytes,
                    });
                }
            }
        }
        if self.offered_total % self.config.tick_events == 0 {
            rows.extend(self.tick());
        }
        Ok(rows)
    }

    /// One scheduler tick: activate due crashes, drain every tenant's
    /// queue (one pool job per tenant, reassembled in admission order),
    /// decay idle tenants, and re-plan the shared budget when due.
    // mnemo-lint: allow(R003, "reachable panics are invariant asserts: non-empty curve, pre-initialized fault section")
    fn tick(&mut self) -> Vec<String> {
        self.ticks += 1;
        let now = self.now_ns();
        let mut rows: Vec<String> = Vec::new();
        for tenant in &self.tenants {
            rows.extend(lock(tenant).apply_due_crashes(now));
        }
        let advisor = &self.advisor;
        let slo = self.config.slo;
        let tenants = &self.tenants;
        // mnemo-lint: allow(D007, "predict's sum is a per-key dot product inside one tenant job; rows reassemble in admission order")
        let drained: Vec<Vec<String>> = mnemo_par::Pool::current().run_jobs(tenants.len(), |i| {
            let mut tenant = lock(&tenants[i]);
            let mut out = Vec::new();
            let drained = tenant.queue.len() as u64;
            while let Some(event) = tenant.queue.pop_front() {
                if let Some(row) = tenant.on_event(&event, advisor, slo) {
                    out.push(row);
                }
            }
            if drained > 0 {
                // No zero bump: it would add a counter key to idle ticks.
                tenant.recorder.count("serve.tenant.events", drained);
            } else if tenant.profiler.events() > 0 {
                // A warm tenant saw no traffic this scheduler epoch:
                // relax its summary instead of freezing it.
                tenant.profiler.note_idle_epoch();
                tenant.recorder.count("serve.tenant.idle_epochs", 1);
            }
            out
        });
        rows.extend(drained.into_iter().flatten());
        self.recorder.count("serve.ticks", 1);
        self.recorder
            .gauge("serve.tenants", self.tenants.len() as f64);
        if self.ticks % self.config.replan_every == 0 {
            rows.extend(self.replan());
        }
        let mut snap = self.recorder.take_snapshot(self.ticks);
        for tenant in &self.tenants {
            snap.merge(&lock(tenant).recorder.take_snapshot(self.ticks));
        }
        self.snapshots.push(snap);
        rows
    }

    /// Re-plan the shared FastMem budget across every warm tenant,
    /// emitting one grant row per participant. Each participant's
    /// demand is fitted fresh from its current profiler state.
    fn replan(&mut self) -> Vec<String> {
        // Demands borrow each tenant's memoised pattern, so every tenant
        // stays locked until the allocation is done.
        let tenants: Vec<MutexGuard<'_, Tenant>> = self.tenants.iter().map(lock).collect();
        let mut participants: Vec<&Tenant> = Vec::new();
        let mut demands: Vec<TenantDemand> = Vec::new();
        for tenant in &tenants {
            if let Some(d) = tenant.demand(&self.advisor) {
                participants.push(tenant);
                demands.push(d);
            }
        }
        if demands.is_empty() {
            return Vec::new();
        }
        self.recorder.count("serve.replan.runs", 1);
        let allocation = mnemo::multi::allocate_demands(&demands, self.config.share_bytes);
        let mut rows = Vec::with_capacity(allocation.tenants.len());
        for grant in &allocation.tenants {
            self.recorder.count("serve.replan.rows", 1);
            rows.push(proto::replan_row(
                self.ticks,
                &participants[grant.tenant].name,
                grant.fast_bytes,
                allocation.budget_bytes,
                grant.est_slowdown,
            ));
        }
        rows
    }

    /// Answer an `advise` command immediately from the tenant's current
    /// profiler state (events still queued fold in at the next tick —
    /// that bound, not the queue depth, is the advise latency). Unknown
    /// tenants are admitted cold, so the answer is a degraded
    /// `empty_curve` row rather than an error.
    // mnemo-lint: allow(R003, "the curve expect guards an empty-curve state estimate() is documented never to emit")
    pub fn advise_now(&mut self, name: &str) -> String {
        match self.tenant_index(name) {
            Err(reason) => proto::error_row(&reason),
            Ok(index) => {
                let advisor = &self.advisor;
                let slo = self.config.slo;
                let mut tenant = lock(&self.tenants[index]);
                tenant.apply_due_crashes(self.offered_total as u128 * self.config.ns_per_event);
                let resilient = tenant.advise(advisor, slo);
                proto::advise_row(
                    &tenant.name,
                    tenant.profiler.events(),
                    &Drift::Stable,
                    &resilient,
                )
            }
        }
    }

    /// A daemon status row: offered/tick totals plus one summary object
    /// per tenant, in admission order.
    pub fn status_row(&self) -> String {
        let mut row = format!(
            "{{\"v\":1,\"row\":\"status\",\"offered\":{},\"ticks\":{},\"tenants\":[",
            self.offered_total, self.ticks
        );
        for (i, tenant) in self.tenants.iter().enumerate() {
            let t = lock(tenant);
            if i > 0 {
                row.push(',');
            }
            let _ = write!(
                row,
                concat!(
                    "{{\"name\":\"{}\",\"events\":{},\"queued\":{},\"dropped\":{},",
                    "\"crash_dropped\":{},\"advice_rows\":{},\"profiler_bytes\":{}}}"
                ),
                escape(&t.name),
                t.profiler.events(),
                t.queue.len(),
                t.dropped,
                t.crash_dropped,
                t.advice_rows,
                t.profiler.memory_bytes(),
            );
        }
        row.push_str("]}");
        row
    }

    /// Cumulative merged telemetry as one row: every sim-domain counter,
    /// plus per-span observation counts (values for wall-domain spans
    /// are deliberately omitted — they are not deterministic).
    pub fn snapshot_row(&self) -> String {
        let folded = self.folded_snapshot();
        let mut row = String::from("{\"v\":1,\"row\":\"snapshot\",\"counters\":{");
        for (i, (name, value)) in folded.counters().enumerate() {
            if i > 0 {
                row.push(',');
            }
            let _ = write!(row, "\"{}\":{}", escape(name), value);
        }
        row.push_str("},\"spans\":{");
        for (i, (name, _, hist)) in folded.histograms().enumerate() {
            if i > 0 {
                row.push(',');
            }
            let _ = write!(row, "\"{}\":{}", escape(name), hist.count());
        }
        row.push_str("}}");
        row
    }

    /// Fold of all completed tick snapshots (cumulative totals).
    pub fn folded_snapshot(&self) -> Snapshot {
        let mut folded = Snapshot::empty(0);
        for snap in &self.snapshots {
            folded.fold(snap);
        }
        folded
    }

    /// The per-tick snapshots taken so far.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// End of input: run one final tick so queued events, idle decay,
    /// and the re-plan all land, then snapshot. Deterministic because
    /// it runs at a fixed point of the request sequence.
    pub fn finish(&mut self) -> Vec<String> {
        self.tick()
    }

    // -- state dump/reload plumbing (see `crate::state`) ---------------

    pub(crate) fn tenant_states(&self) -> Vec<crate::state::TenantState> {
        self.tenants
            .iter()
            .map(|tenant| {
                let t = lock(tenant);
                crate::state::TenantState {
                    name: t.name.clone(),
                    offered: t.offered,
                    dropped: t.dropped,
                    crash_dropped: t.crash_dropped,
                    advice_rows: t.advice_rows,
                    pending: t.pending,
                    profiler: t.profiler.export_state(),
                }
            })
            .collect()
    }

    pub(crate) fn clock_state(&self) -> (u64, u64) {
        (self.offered_total, self.ticks)
    }

    /// Rebuild warm tenants from a state dump. Each tenant is admitted
    /// through the normal path (so baselines and crash windows are
    /// re-derived from the *current* configuration) and then has its
    /// profiler and counters restored.
    pub(crate) fn restore(
        &mut self,
        offered: u64,
        ticks: u64,
        tenants: Vec<crate::state::TenantState>,
    ) -> Result<(), ServeError> {
        for saved in tenants {
            let index = self.tenant_index(&saved.name).map_err(ServeError::Engine)?;
            let profiler = StreamProfiler::from_state(self.config.stream, &saved.profiler)
                .map_err(|e| {
                    ServeError::Engine(format!("state for `{}` does not fit: {e}", saved.name))
                })?;
            let mut tenant = lock(&self.tenants[index]);
            tenant.profiler = profiler;
            tenant.pending = saved.pending;
            tenant.offered = saved.offered;
            tenant.dropped = saved.dropped;
            tenant.crash_dropped = saved.crash_dropped;
            tenant.advice_rows = saved.advice_rows;
        }
        self.offered_total = offered;
        self.ticks = ticks;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemo_stream::DriftConfig;
    use ycsb::Op;

    fn small_config() -> ServeConfig {
        ServeConfig {
            stream: StreamConfig {
                drift: DriftConfig {
                    epoch_len: 200,
                    ..DriftConfig::default()
                },
                ..StreamConfig::with_budget_bytes(16 * 1024)
            },
            tick_events: 400,
            calib_keys: 120,
            calib_requests: 1_500,
            ..ServeConfig::default()
        }
    }

    fn event(tenant: &str, key: u64) -> EventV1 {
        EventV1 {
            tenant: tenant.into(),
            key,
            op: if key % 4 == 0 { Op::Update } else { Op::Read },
            bytes: 100 + key % 300,
        }
    }

    #[test]
    fn ticks_fire_on_offered_events_and_advise() {
        let mut engine = ServeEngine::new(small_config()).unwrap();
        let mut rows = Vec::new();
        for i in 0..800u64 {
            rows.extend(engine.ingest(event("alpha", i * 37 % 90)).unwrap());
        }
        assert_eq!(engine.ticks(), 2);
        assert_eq!(engine.offered(), 800);
        let advise: Vec<&String> = rows.iter().filter(|r| r.contains("\"advise\"")).collect();
        assert!(!advise.is_empty(), "warm tenant must advise: {rows:?}");
        assert!(
            rows.iter().any(|r| r.contains("\"replan\"")),
            "a consulted tenant must appear in the re-plan: {rows:?}"
        );
    }

    #[test]
    fn cold_advise_is_degraded_not_absent() {
        let mut engine = ServeEngine::new(small_config()).unwrap();
        let row = engine.advise_now("never-seen");
        assert!(row.contains("\"degraded\":\"empty_curve\""), "{row}");
        assert!(row.contains("\"at_event\":0"), "{row}");
    }

    #[test]
    fn admission_ceiling_rejects_with_a_row() {
        let mut engine = ServeEngine::new(ServeConfig {
            max_tenants: 1,
            ..small_config()
        })
        .unwrap();
        assert!(engine.ingest(event("a", 1)).unwrap().is_empty());
        let rows = engine.ingest(event("b", 1)).unwrap();
        assert!(rows[0].contains("\"row\":\"error\""), "{rows:?}");
        assert!(rows[0].contains("admission ceiling"), "{rows:?}");
    }

    #[test]
    fn bounded_queues_drop_and_count() {
        let mut engine = ServeEngine::new(ServeConfig {
            queue_cap: 10,
            ..small_config()
        })
        .unwrap();
        for i in 0..399u64 {
            engine.ingest(event("alpha", i)).unwrap();
        }
        let status = engine.status_row();
        assert!(status.contains("\"queued\":10"), "{status}");
        assert!(status.contains("\"dropped\":389"), "{status}");
    }
}
