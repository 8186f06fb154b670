//! The paper's two-instance deployment.
//!
//! Section II: "we run two server instances on the same testbed ... bind
//! the execution of the server processes to the CPU cores of the FastMem
//! socket, and their memory allocations to one memory node, either FastMem
//! or SlowMem exclusively", with a modified YCSB client that "can redirect
//! requests across the two server instances".
//!
//! [`TwoInstanceCluster`] reproduces that architecture literally: a
//! FastMem-bound server, a SlowMem-bound server, and a client-side router
//! keyed on the placement set. It is behaviourally equivalent to a single
//! placement-aware [`Server`](crate::server::Server) (they share all cost
//! models), which an integration test verifies — the cluster exists so
//! the Placement Engine can populate *servers*, as in the paper.

use crate::engine::EngineError;
use crate::profile::StoreKind;
use crate::server::{make_engine, Placement, RequestSample, RunReport};
use hybridmem::clock::NoiseConfig;
use hybridmem::{
    DetHashSet, Histogram, HybridSpec, MemTier, NoiseModel, SimClock, StackSpec, TierId,
};
use ycsb::{Op, Trace};

/// A FastMem server + SlowMem server pair with client-side routing.
pub struct TwoInstanceCluster {
    fast: Box<dyn crate::engine::KvEngine>,
    slow: Box<dyn crate::engine::KvEngine>,
    fast_keys: DetHashSet<u64>,
    noise: NoiseModel,
    store: StoreKind,
}

impl TwoInstanceCluster {
    /// Deploy both instances and load the dataset: keys in `fast_keys` go
    /// to the FastServer, the rest to the SlowServer.
    pub fn build(
        kind: StoreKind,
        trace: &Trace,
        fast_keys: DetHashSet<u64>,
    ) -> Result<TwoInstanceCluster, EngineError> {
        TwoInstanceCluster::build_with(
            kind,
            HybridSpec::paper_testbed(),
            NoiseConfig::disabled(),
            trace,
            fast_keys,
        )
    }

    /// Fully parameterised constructor.
    pub fn build_with(
        kind: StoreKind,
        spec: HybridSpec,
        noise: NoiseConfig,
        trace: &Trace,
        fast_keys: DetHashSet<u64>,
    ) -> Result<TwoInstanceCluster, EngineError> {
        let stack = StackSpec::two_tier(&spec);
        let mut fast = make_engine(kind, stack.clone())?;
        let mut slow = make_engine(kind, stack)?;
        for (key, &bytes) in trace.sizes.iter().enumerate() {
            let key = key as u64;
            if fast_keys.contains(&key) {
                fast.load(key, bytes, TierId::FAST)?;
            } else {
                slow.load(key, bytes, TierId::SLOW)?;
            }
        }
        Ok(TwoInstanceCluster {
            fast,
            slow,
            fast_keys,
            noise: NoiseModel::new(noise),
            store: kind,
        })
    }

    /// Deploy from a [`Placement`].
    pub fn from_placement(
        kind: StoreKind,
        trace: &Trace,
        placement: &Placement,
    ) -> Result<TwoInstanceCluster, EngineError> {
        let fast_keys = (0..trace.keys())
            .filter(|&k| placement.tier_of(k) == MemTier::Fast)
            .collect();
        TwoInstanceCluster::build(kind, trace, fast_keys)
    }

    /// Which instance a key routes to.
    pub fn route(&self, key: u64) -> MemTier {
        if self.fast_keys.contains(&key) {
            MemTier::Fast
        } else {
            MemTier::Slow
        }
    }

    /// Number of keys held by each instance, `(fast, slow)`.
    pub fn key_split(&self) -> (usize, usize) {
        (self.fast.key_count(), self.slow.key_count())
    }

    /// Bytes held by each instance, `(fast, slow)`.
    pub fn byte_split(&self) -> (u64, u64) {
        (
            self.fast.bytes_in(TierId::FAST),
            self.slow.bytes_in(TierId::SLOW),
        )
    }

    /// Execute the trace through the router.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        self.run_instrumented(trace, None)
    }

    /// [`Self::run`] with telemetry: one epoch snapshot every
    /// `epoch_len` requests (0 = whole run), recording per-request
    /// service times plus the router's decisions (`kv.route.fast` /
    /// `kv.route.slow`) and each instance's LLC hit/miss deltas.
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
        self.fast.reset_measurement_state();
        self.slow.reset_measurement_state();
        let mut clock = SimClock::new();
        let mut report = RunReport {
            store: self.store,
            workload: trace.name.clone(),
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
        for r in &trace.requests {
            let routed_fast = self.fast_keys.contains(&r.key);
            let instance = if routed_fast {
                self.fast.as_mut()
            } else {
                self.slow.as_mut()
            };
            let pre_cache = telemetry.as_ref().map(|_| instance.memory().cache_stats());
            let raw = match r.op {
                Op::Read => instance.get(r.key),
                Op::Update => instance.put(r.key),
            }
            // mnemo-lint: allow(R001, "build() loads every key of the trace into one of the two instances, so routing cannot hit an unloaded key")
            .expect("trace references unloaded key");
            let ns = self.noise.perturb(raw);
            clock.advance(ns);
            if let (Some(log), Some(pre_cache)) = (telemetry.as_deref_mut(), pre_cache) {
                let instance = if routed_fast { &self.fast } else { &self.slow };
                let cache_delta = instance.memory().cache_stats().since(&pre_cache);
                let tel = log.recorder();
                tel.count("kv.requests", 1);
                tel.observe("kv.request.service_ns", ns);
                let (route_name, llc_prefix) = if routed_fast {
                    ("kv.route.fast", "kv.llc.fast")
                } else {
                    ("kv.route.slow", "kv.llc.slow")
                };
                tel.count(route_name, 1);
                tel.record_cache_stats(llc_prefix, &cache_delta);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use ycsb::WorkloadSpec;

    fn trace() -> Trace {
        WorkloadSpec::trending().scaled(200, 3_000).generate(9)
    }

    #[test]
    fn routing_respects_fast_set() {
        let t = trace();
        let fast: DetHashSet<u64> = (0..50).collect();
        let c = TwoInstanceCluster::build(StoreKind::Redis, &t, fast).unwrap();
        assert_eq!(c.route(10), MemTier::Fast);
        assert_eq!(c.route(60), MemTier::Slow);
        assert_eq!(c.key_split(), (50, 150));
        let (fb, sb) = c.byte_split();
        assert!(fb > 0 && sb > 0);
    }

    #[test]
    fn cluster_agrees_with_single_placement_aware_server() {
        let t = trace();
        let fast: DetHashSet<u64> = (0..100).collect();
        let mut cluster = TwoInstanceCluster::build(StoreKind::Redis, &t, fast.clone()).unwrap();
        let cr = cluster.run(&t);
        let sr = Server::build(StoreKind::Redis, &t, Placement::FastSet(fast))
            .unwrap()
            .run(&t);
        let rel = (cr.throughput_ops_s() - sr.throughput_ops_s()).abs() / sr.throughput_ops_s();
        // Separate per-instance LLCs and dict load factors leave a small
        // gap; the architectures must agree to a few percent.
        assert!(
            rel < 0.05,
            "cluster {} vs server {}",
            cr.throughput_ops_s(),
            sr.throughput_ops_s()
        );
    }

    #[test]
    fn empty_fast_set_equals_all_slow() {
        let t = trace();
        let mut cluster =
            TwoInstanceCluster::build(StoreKind::Redis, &t, DetHashSet::default()).unwrap();
        let cr = cluster.run(&t);
        let sr = Server::build(StoreKind::Redis, &t, Placement::AllSlow)
            .unwrap()
            .run(&t);
        let rel = (cr.throughput_ops_s() - sr.throughput_ops_s()).abs() / sr.throughput_ops_s();
        assert!(
            rel < 0.01,
            "cluster {} vs server {}",
            cr.throughput_ops_s(),
            sr.throughput_ops_s()
        );
    }

    #[test]
    fn telemetered_cluster_counts_routing_decisions() {
        let t = trace();
        let fast: DetHashSet<u64> = (0..50).collect();
        let mut cluster = TwoInstanceCluster::build(StoreKind::Redis, &t, fast.clone()).unwrap();
        let (report, snaps) = cluster.run_telemetered(&t, 0);
        assert_eq!(snaps.len(), 1);
        let snap = &snaps[0];
        let expected_fast = t.requests.iter().filter(|r| fast.contains(&r.key)).count() as u64;
        assert_eq!(snap.counter("kv.route.fast"), expected_fast);
        assert_eq!(
            snap.counter("kv.route.fast") + snap.counter("kv.route.slow"),
            report.requests as u64
        );
        assert!(snap.counter("kv.llc.fast.hits") + snap.counter("kv.llc.fast.misses") > 0);
    }

    #[test]
    fn from_placement_constructor() {
        let t = trace();
        let c = TwoInstanceCluster::from_placement(StoreKind::Memcached, &t, &Placement::AllFast)
            .unwrap();
        assert_eq!(c.key_split().0, 200);
    }
}
