//! Dynamic tiering baseline — the "existing tiering solution" Mnemo is
//! complementary to (paper Fig. 2b).
//!
//! Mnemo provides "a static key allocation, with no support for dynamic
//! data migration" (§IV). The systems it builds on (X-Mem, HeteroOS,
//! Unimem) *migrate at runtime* instead: they monitor accesses and
//! periodically promote hot data into FastMem, paying migration traffic.
//! [`DynamicTieringServer`] implements that loop over the same engines:
//!
//! * every `epoch_requests` requests, keys are scored by an
//!   exponentially-decayed access count divided by size (the same
//!   density rule as MnemoT's weights);
//! * the FastMem budget is refilled with the top-density keys;
//! * every migration's simulated copy cost is charged to the runtime —
//!   dynamism is not free.
//!
//! The `dynamic_vs_static` experiment uses this to show where static
//! placement suffices (stable patterns like Trending) and where only
//! migration helps (sliding patterns like News Feed).

use crate::engine::{EngineError, KvEngine};
use crate::profile::StoreKind;
use crate::server::{make_engine, RequestSample, RunReport};
use hybridmem::{Histogram, HybridSpec, MemTier, SimClock, StackSpec, TierId};
use mnemo_faults::{Backoff, FaultPlan, MigrationFaults};
use ycsb::{Op, Trace};

/// Configuration of the dynamic tierer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    /// Requests between re-tiering decisions.
    pub epoch_requests: usize,
    /// FastMem byte budget the tierer may fill.
    pub fast_budget_bytes: u64,
    /// Per-epoch decay of the access scores (0 = forget everything each
    /// epoch, 1 = never forget). HeteroOS-style history smoothing.
    pub decay: f64,
    /// Residency bonus: a key already in FastMem keeps its slot unless a
    /// challenger's access density exceeds the resident's by this factor.
    /// Without it, one-hit cold keys displace momentarily-quiet hot keys
    /// every epoch and the tierer thrashes (the instability real tiering
    /// systems damp with exactly this kind of hysteresis).
    pub hysteresis: f64,
    /// Minimum decayed score a *non-resident* key needs to be considered
    /// for promotion — the classic two-touch (2Q / second-chance) filter
    /// that keeps one-hit wonders from evicting quiet residents.
    pub promotion_threshold: f64,
}

impl DynamicConfig {
    /// A reasonable default: re-tier every 1000 requests, ~3-epoch score
    /// memory, 50% residency bonus.
    pub fn new(fast_budget_bytes: u64) -> DynamicConfig {
        DynamicConfig {
            epoch_requests: 1000,
            fast_budget_bytes,
            decay: 0.7,
            hysteresis: 0.5,
            promotion_threshold: 2.0,
        }
    }
}

/// Outcome counters of a dynamic run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationStats {
    /// Keys moved into FastMem.
    pub promotions: u64,
    /// Keys moved out of FastMem.
    pub demotions: u64,
    /// Total simulated nanoseconds spent copying data between tiers.
    pub migration_ns: f64,
    /// Migration attempts re-issued after an injected failure.
    pub retries: u64,
    /// Injected migration failures (each failed attempt counts once).
    pub failures: u64,
    /// Migrations abandoned after exhausting the retry budget — the key
    /// gracefully stays in its current (SlowMem) placement.
    pub fallbacks: u64,
    /// Total simulated nanoseconds spent in backoff delays.
    pub retry_ns: f64,
}

/// A server whose placement is continuously re-tiered at runtime.
pub struct DynamicTieringServer {
    engine: Box<dyn KvEngine>,
    config: DynamicConfig,
    store: StoreKind,
    /// Decayed per-key access score.
    scores: Vec<f64>,
    stats: MigrationStats,
    /// Seeded migration-failure schedule (empty = no injection).
    faults: MigrationFaults,
    /// Retry policy applied when a migration fails.
    backoff: Backoff,
    /// Whether a degradation profile is installed (drives per-request
    /// sim-time pushes into the devices).
    degraded: bool,
}

impl DynamicTieringServer {
    /// Build over the paper testbed; the dataset starts all-SlowMem (the
    /// tierer must discover the hot set, as real systems do).
    pub fn build(
        kind: StoreKind,
        trace: &Trace,
        config: DynamicConfig,
    ) -> Result<DynamicTieringServer, EngineError> {
        Self::build_with(kind, HybridSpec::paper_testbed(), trace, config)
    }

    /// Build with an explicit testbed spec.
    pub fn build_with(
        kind: StoreKind,
        spec: HybridSpec,
        trace: &Trace,
        config: DynamicConfig,
    ) -> Result<DynamicTieringServer, EngineError> {
        assert!(config.epoch_requests > 0, "epoch must be positive");
        assert!((0.0..=1.0).contains(&config.decay), "decay out of [0,1]");
        assert!(config.hysteresis >= 0.0, "hysteresis must be non-negative");
        let mut engine = make_engine(kind, StackSpec::two_tier(&spec))?;
        for (key, &bytes) in trace.sizes.iter().enumerate() {
            engine.load(key as u64, bytes, TierId::SLOW)?;
        }
        Ok(DynamicTieringServer {
            engine,
            config,
            store: kind,
            scores: vec![0.0; trace.sizes.len()],
            stats: MigrationStats::default(),
            faults: MigrationFaults::default(),
            backoff: Backoff::default(),
            degraded: false,
        })
    }

    /// Migration statistics of the last run.
    pub fn migration_stats(&self) -> MigrationStats {
        self.stats
    }

    /// Install a fault plan: device degradation windows plus the seeded
    /// migration-failure schedule and its retry policy.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        let profile = plan.degradation_profile();
        self.degraded = !profile.is_empty();
        self.engine
            .memory_mut()
            .set_degradation(if profile.is_empty() {
                None
            } else {
                Some(profile)
            });
        self.faults = plan.migration_faults();
        self.backoff = plan.backoff;
    }

    /// Re-tier: fill the budget with the top-density keys (residents
    /// enjoy the hysteresis bonus); return the simulated migration cost,
    /// including any backoff delays spent retrying injected failures.
    /// `now_ns` anchors the failure schedule to simulated time.
    fn retier(&mut self, now_ns: u128) -> f64 {
        // Density order over scored keys, hysteresis-boosted residents.
        let density = |engine: &dyn KvEngine, scores: &[f64], hysteresis: f64, key: u64| -> f64 {
            let base = scores[key as usize] / engine.value_bytes(key).unwrap_or(1).max(1) as f64;
            if engine.placement_of(key) == Some(TierId::FAST) {
                base * (1.0 + hysteresis)
            } else {
                base
            }
        };
        let mut order: Vec<u64> = (0..self.scores.len() as u64).collect();
        order.sort_by(|&a, &b| {
            let sa = density(
                self.engine.as_ref(),
                &self.scores,
                self.config.hysteresis,
                a,
            );
            let sb = density(
                self.engine.as_ref(),
                &self.scores,
                self.config.hysteresis,
                b,
            );
            sb.total_cmp(&sa).then(a.cmp(&b))
        });
        // Desired FastMem set under the budget.
        let mut budget = self.config.fast_budget_bytes;
        let mut want_fast = vec![false; self.scores.len()];
        for &key in &order {
            let score = self.scores[key as usize];
            if score <= 0.0 {
                break;
            }
            let resident = self.engine.placement_of(key) == Some(TierId::FAST);
            if !resident && score < self.config.promotion_threshold {
                continue;
            }
            let bytes = self.engine.value_bytes(key).unwrap_or(0);
            if bytes <= budget {
                budget -= bytes;
                want_fast[key as usize] = true;
            }
        }
        // Apply: demote first (to free capacity), then promote. The
        // engine's migrate is unmetered, so charge the copy cost by the
        // memory system's own arithmetic: read source + write target.
        // Injected failures drive a capped-exponential retry loop; a key
        // that exhausts the budget gracefully keeps its current placement
        // (for promotions, that is the SlowMem fallback) and only the
        // backoff delays are charged.
        let mut cost = 0.0;
        let tiers = &self.engine.memory().spec().tiers;
        let (fast, slow) = (tiers[0].spec, tiers[1].spec);
        let apply = |engine: &mut dyn KvEngine,
                     stats: &mut MigrationStats,
                     faults: &MigrationFaults,
                     backoff: &Backoff,
                     key: u64,
                     target: MemTier|
         -> f64 {
            let bytes = engine.value_bytes(key).unwrap_or(0);
            let mut delay = 0.0f64;
            let mut attempt = 0u32;
            loop {
                // Delays push the attempt forward in simulated time, so a
                // failure window can expire mid-backoff.
                let at = now_ns + delay as u128;
                if !faults.is_empty() && faults.fails(at, key, attempt) {
                    stats.failures += 1;
                    if attempt >= backoff.max_retries {
                        stats.fallbacks += 1;
                        stats.retry_ns += delay;
                        return delay;
                    }
                    delay += backoff.delay_ns(attempt);
                    stats.retries += 1;
                    attempt += 1;
                    continue;
                }
                stats.retry_ns += delay;
                if engine.migrate(key, target.id()).is_err() {
                    return delay;
                }
                match target {
                    MemTier::Fast => stats.promotions += 1,
                    MemTier::Slow => stats.demotions += 1,
                }
                let (src, dst) = match target {
                    MemTier::Fast => (&slow, &fast),
                    MemTier::Slow => (&fast, &slow),
                };
                return delay
                    + src.access_ns(hybridmem::AccessKind::Read, bytes)
                    + dst.access_ns(hybridmem::AccessKind::Write, bytes);
            }
        };
        for key in 0..self.scores.len() as u64 {
            let current = self.engine.placement_of(key);
            if current == Some(TierId::FAST) && !want_fast[key as usize] {
                cost += apply(
                    self.engine.as_mut(),
                    &mut self.stats,
                    &self.faults,
                    &self.backoff,
                    key,
                    MemTier::Slow,
                );
            }
        }
        for key in 0..self.scores.len() as u64 {
            let current = self.engine.placement_of(key);
            if current == Some(TierId::SLOW) && want_fast[key as usize] {
                cost += apply(
                    self.engine.as_mut(),
                    &mut self.stats,
                    &self.faults,
                    &self.backoff,
                    key,
                    MemTier::Fast,
                );
            }
        }
        // Decay the history.
        for s in &mut self.scores {
            *s *= self.config.decay;
        }
        self.stats.migration_ns += cost;
        cost
    }

    /// Execute the trace with periodic re-tiering; migration time is
    /// part of the measured runtime.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        self.run_instrumented(trace, None)
    }

    /// [`Self::run`] with telemetry: one snapshot every `epoch_len`
    /// requests (0 = whole run), recording per-request service times,
    /// tier hits, and every re-tiering decision's migration events
    /// (`kv.migration.promotions` / `demotions` counters and the
    /// simulated copy cost as the `kv.migration.cost_ns` gauge, one
    /// observation per re-tiering pass).
    pub fn run_telemetered(
        &mut self,
        trace: &Trace,
        epoch_len: u64,
    ) -> (RunReport, Vec<mnemo_telemetry::Snapshot>) {
        let mut log = mnemo_telemetry::EpochLog::new(epoch_len);
        let report = self.run_instrumented(trace, Some(&mut log));
        (report, log.finish())
    }

    fn run_instrumented(
        &mut self,
        trace: &Trace,
        mut telemetry: Option<&mut mnemo_telemetry::EpochLog>,
    ) -> RunReport {
        self.engine.reset_measurement_state();
        self.stats = MigrationStats::default();
        let mut clock = SimClock::new();
        let mut report = RunReport {
            store: self.store,
            workload: format!("{} [dynamic]", trace.name),
            requests: trace.len(),
            runtime_ns: 0.0,
            reads: 0,
            writes: 0,
            read_ns_total: 0.0,
            write_ns_total: 0.0,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
            samples: Vec::with_capacity(trace.len()),
        };
        for (i, r) in trace.requests.iter().enumerate() {
            if i > 0 && i % self.config.epoch_requests == 0 {
                let before = self.stats;
                let cost = self.retier(clock.now_ns());
                clock.advance(cost);
                if let Some(log) = telemetry.as_deref_mut() {
                    let tel = log.recorder();
                    tel.count("kv.migration.retierings", 1);
                    tel.count(
                        "kv.migration.promotions",
                        self.stats.promotions - before.promotions,
                    );
                    tel.count(
                        "kv.migration.demotions",
                        self.stats.demotions - before.demotions,
                    );
                    tel.gauge("kv.migration.cost_ns", cost);
                    tel.count("kv.migration.retries", self.stats.retries - before.retries);
                    tel.count(
                        "kv.fault.migration_failures",
                        self.stats.failures - before.failures,
                    );
                    tel.count(
                        "kv.migration.fallbacks",
                        self.stats.fallbacks - before.fallbacks,
                    );
                    if self.stats.retry_ns > before.retry_ns {
                        tel.gauge(
                            "kv.migration.retry_ns",
                            self.stats.retry_ns - before.retry_ns,
                        );
                    }
                }
            }
            if self.degraded {
                self.engine.memory_mut().set_now_ns(clock.now_ns());
            }
            self.scores[r.key as usize] += 1.0;
            let tier = telemetry
                .as_ref()
                .and_then(|_| self.engine.placement_of(r.key));
            let ns = match r.op {
                Op::Read => self.engine.get(r.key),
                Op::Update => self.engine.put(r.key),
            }
            // mnemo-lint: allow(R001, "the dynamic server loads every key of the trace before run, so requests cannot hit an unloaded key")
            .expect("trace references unloaded key");
            clock.advance(ns);
            if let Some(log) = telemetry.as_deref_mut() {
                let tel = log.recorder();
                tel.count("kv.requests", 1);
                tel.observe("kv.request.service_ns", ns);
                match tier {
                    Some(TierId::FAST) => tel.count("kv.tier.fast_hits", 1),
                    Some(TierId::SLOW) => tel.count("kv.tier.slow_hits", 1),
                    _ => {}
                }
                log.tick();
            }
            match r.op {
                Op::Read => {
                    report.reads += 1;
                    report.read_ns_total += ns;
                    report.read_hist.record(ns);
                }
                Op::Update => {
                    report.writes += 1;
                    report.write_ns_total += ns;
                    report.write_hist.record(ns);
                }
            }
            report.samples.push(RequestSample {
                key: r.key,
                op: r.op,
                service_ns: ns,
            });
        }
        report.runtime_ns = clock.now_ns() as f64;
        report
    }

    /// Bytes currently placed in FastMem.
    pub fn fast_bytes(&self) -> u64 {
        self.engine.bytes_in(TierId::FAST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Placement, Server};
    use ycsb::WorkloadSpec;

    fn budget_for(trace: &Trace) -> u64 {
        trace.dataset_bytes() / 5
    }

    /// Paper-proportioned testbed (the full 12 MB LLC would cache these
    /// reduced-scale datasets outright and mask placement effects).
    fn scaled_spec(trace: &Trace) -> HybridSpec {
        let mut spec = HybridSpec::paper_testbed();
        spec.cache.capacity_bytes = (trace.dataset_bytes() / 85).max(1 << 16);
        spec
    }

    #[test]
    fn dynamic_respects_budget() {
        let t = WorkloadSpec::trending().scaled(200, 4_000).generate(3);
        let mut server =
            DynamicTieringServer::build(StoreKind::Redis, &t, DynamicConfig::new(budget_for(&t)))
                .unwrap();
        let _ = server.run(&t);
        // Engine-side overhead makes bytes slightly exceed the logical
        // budget; allow the header slack.
        assert!(
            server.fast_bytes() <= budget_for(&t) + 64 * t.keys(),
            "fast bytes {} exceed budget {}",
            server.fast_bytes(),
            budget_for(&t)
        );
        assert!(server.migration_stats().promotions > 0);
    }

    #[test]
    fn dynamic_beats_static_on_sliding_patterns() {
        // News feed: the hot window slides, so a static placement (even a
        // clairvoyant one from full-trace counts) decays, while the
        // dynamic tierer follows the window.
        let t = WorkloadSpec::news_feed().scaled(300, 12_000).generate(7);
        let budget = budget_for(&t);
        let mut dynamic = DynamicTieringServer::build_with(
            StoreKind::Redis,
            scaled_spec(&t),
            &t,
            DynamicConfig {
                epoch_requests: 500,
                decay: 0.3,
                ..DynamicConfig::new(budget)
            },
        )
        .unwrap();
        let dyn_report = dynamic.run(&t);

        // Static oracle: hottest keys by full-trace counts, same budget.
        let counts = t.key_counts();
        let mut order: Vec<u64> = (0..t.keys()).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(counts[k as usize].0 + counts[k as usize].1));
        let mut used = 0u64;
        let fast: hybridmem::DetHashSet<u64> = order
            .iter()
            .copied()
            .take_while(|&k| {
                used += t.sizes[k as usize];
                used <= budget
            })
            .collect();
        let static_report = Server::build_with(
            StoreKind::Redis,
            scaled_spec(&t),
            hybridmem::clock::NoiseConfig::disabled(),
            &t,
            Placement::FastSet(fast),
        )
        .unwrap()
        .run(&t);

        assert!(
            dyn_report.throughput_ops_s() > static_report.throughput_ops_s(),
            "dynamic {} must beat static {} on news feed",
            dyn_report.throughput_ops_s(),
            static_report.throughput_ops_s()
        );
    }

    #[test]
    fn static_suffices_on_stable_patterns() {
        // Trending: the hot set never moves; static placement (Mnemo's
        // product) matches or beats the migrating tierer, which pays
        // migration traffic for nothing.
        let t = WorkloadSpec::trending().scaled(300, 12_000).generate(7);
        let budget = budget_for(&t);
        let mut dynamic = DynamicTieringServer::build_with(
            StoreKind::Redis,
            scaled_spec(&t),
            &t,
            DynamicConfig {
                epoch_requests: 500,
                decay: 0.3,
                ..DynamicConfig::new(budget)
            },
        )
        .unwrap();
        let dyn_report = dynamic.run(&t);

        let counts = t.key_counts();
        let mut order: Vec<u64> = (0..t.keys()).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(counts[k as usize].0 + counts[k as usize].1));
        let mut used = 0u64;
        let fast: hybridmem::DetHashSet<u64> = order
            .iter()
            .copied()
            .take_while(|&k| {
                used += t.sizes[k as usize];
                used <= budget
            })
            .collect();
        let static_report = Server::build_with(
            StoreKind::Redis,
            scaled_spec(&t),
            hybridmem::clock::NoiseConfig::disabled(),
            &t,
            Placement::FastSet(fast),
        )
        .unwrap()
        .run(&t);

        assert!(
            static_report.throughput_ops_s() >= dyn_report.throughput_ops_s() * 0.98,
            "static {} should match dynamic {} on trending",
            static_report.throughput_ops_s(),
            dyn_report.throughput_ops_s()
        );
    }

    #[test]
    fn migration_costs_are_charged() {
        let t = WorkloadSpec::timeline().scaled(200, 6_000).generate(2);
        let mut server = DynamicTieringServer::build(
            StoreKind::Redis,
            &t,
            DynamicConfig {
                epoch_requests: 200,
                ..DynamicConfig::new(budget_for(&t))
            },
        )
        .unwrap();
        let report = server.run(&t);
        let stats = server.migration_stats();
        assert!(stats.migration_ns > 0.0);
        // Runtime includes migration time on top of request service time.
        let service: f64 = report.samples.iter().map(|s| s.service_ns).sum();
        assert!(
            report.runtime_ns > service,
            "migration must inflate runtime"
        );
    }

    #[test]
    fn telemetered_run_records_migration_events() {
        let t = WorkloadSpec::timeline().scaled(200, 6_000).generate(2);
        let mut server = DynamicTieringServer::build(
            StoreKind::Redis,
            &t,
            DynamicConfig {
                epoch_requests: 200,
                ..DynamicConfig::new(budget_for(&t))
            },
        )
        .unwrap();
        let (report, snaps) = server.run_telemetered(&t, 1_000);
        let stats = server.migration_stats();
        let sum = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
        assert_eq!(sum("kv.requests"), report.requests as u64);
        assert_eq!(sum("kv.migration.promotions"), stats.promotions);
        assert_eq!(sum("kv.migration.demotions"), stats.demotions);
        let cost: f64 = snaps
            .iter()
            .filter_map(|s| s.gauge("kv.migration.cost_ns"))
            .map(|g| g.sum)
            .sum();
        assert!((cost - stats.migration_ns).abs() < 1e-6 * stats.migration_ns.max(1.0));
        assert!(sum("kv.migration.retierings") > 0);
    }

    #[test]
    fn injected_migration_failures_fall_back_gracefully() {
        use mnemo_faults::FaultEvent;
        let t = WorkloadSpec::timeline().scaled(200, 6_000).generate(2);
        let cfg = DynamicConfig {
            epoch_requests: 200,
            ..DynamicConfig::new(budget_for(&t))
        };
        let mut server = DynamicTieringServer::build(StoreKind::Redis, &t, cfg).unwrap();
        server.install_fault_plan(&FaultPlan::new(9).with(FaultEvent::MigrationFailure {
            start_ns: 0,
            end_ns: u128::MAX,
            probability: 1.0,
        }));
        let report = server.run(&t);
        let stats = server.migration_stats();
        assert_eq!(stats.promotions, 0, "every migration is injected to fail");
        assert_eq!(stats.demotions, 0);
        assert!(stats.fallbacks > 0, "abandoned migrations must be counted");
        let cap = u64::from(Backoff::default().max_retries);
        assert_eq!(
            stats.retries,
            stats.fallbacks * cap,
            "retry count is bounded by the backoff cap"
        );
        assert_eq!(stats.failures, stats.fallbacks * (cap + 1));
        assert!(stats.retry_ns > 0.0, "backoff delays are charged");
        assert_eq!(server.fast_bytes(), 0, "keys gracefully stay in SlowMem");
        let service: f64 = report.samples.iter().map(|s| s.service_ns).sum();
        assert!(
            report.runtime_ns > service + stats.retry_ns * 0.99,
            "retry delays inflate the measured runtime"
        );
    }

    #[test]
    fn faulted_dynamic_runs_are_deterministic_and_counted() {
        use mnemo_faults::FaultEvent;
        let t = WorkloadSpec::timeline().scaled(200, 6_000).generate(2);
        let plan = FaultPlan::new(7).with(FaultEvent::MigrationFailure {
            start_ns: 0,
            end_ns: u128::MAX,
            probability: 0.5,
        });
        let run = || {
            let cfg = DynamicConfig {
                epoch_requests: 200,
                ..DynamicConfig::new(budget_for(&t))
            };
            let mut server = DynamicTieringServer::build(StoreKind::Redis, &t, cfg).unwrap();
            server.install_fault_plan(&plan);
            let out = server.run_telemetered(&t, 0);
            (out, server.migration_stats())
        };
        let ((r1, snaps), s1) = run();
        let ((r2, _), s2) = run();
        assert_eq!(r1.runtime_ns.to_bits(), r2.runtime_ns.to_bits());
        assert_eq!(s1, s2, "seeded injection must be reproducible");
        assert!(s1.retries > 0, "p=0.5 must fail some attempts");
        assert!(s1.promotions > 0, "p=0.5 must let some retries through");
        let sum = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
        assert_eq!(sum("kv.migration.retries"), s1.retries);
        assert_eq!(sum("kv.fault.migration_failures"), s1.failures);
        assert_eq!(sum("kv.migration.fallbacks"), s1.fallbacks);
        let retry_ns: f64 = snaps
            .iter()
            .filter_map(|s| s.gauge("kv.migration.retry_ns"))
            .map(|g| g.sum)
            .sum();
        assert!((retry_ns - s1.retry_ns).abs() < 1e-6 * s1.retry_ns.max(1.0));
    }

    #[test]
    #[should_panic(expected = "epoch")]
    fn zero_epoch_rejected() {
        let t = WorkloadSpec::trending().scaled(10, 10).generate(0);
        let _ = DynamicTieringServer::build(
            StoreKind::Redis,
            &t,
            DynamicConfig {
                epoch_requests: 0,
                ..DynamicConfig::new(100)
            },
        );
    }
}
