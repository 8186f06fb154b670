//! Concurrent multi-shard deployment.
//!
//! The paper's servers are concurrent processes; the simulator's engines
//! are single-threaded state machines. [`ShardedCluster`] recovers
//! concurrency the way real deployments do: the key space is hash-split
//! over `n` independent shards, shards are driven as coarse jobs on the
//! bounded `mnemo-par` pool (parking_lot-locked engines), and the
//! cluster-level runtime is the slowest shard's runtime — shards serve
//! requests in parallel.

use crate::engine::EngineError;
use crate::profile::StoreKind;
use crate::server::{Placement, RunReport, Server};
use hybridmem::clock::NoiseConfig;
use hybridmem::StackSpec;
use parking_lot::Mutex;
use ycsb::Trace;

/// A hash-sharded set of servers driven concurrently.
pub struct ShardedCluster {
    shards: Vec<Mutex<Server>>,
    store: StoreKind,
}

impl ShardedCluster {
    /// Build `n` shards; each shard loads only its own keys under the
    /// given placement. Shards get the full device bandwidth each (the
    /// optimistic model).
    pub fn build(
        kind: StoreKind,
        trace: &Trace,
        placement: &Placement,
        n: usize,
    ) -> Result<ShardedCluster, EngineError> {
        Self::build_with(
            kind,
            StackSpec::paper_testbed(),
            NoiseConfig::disabled(),
            trace,
            placement,
            n,
        )
    }

    /// Fully parameterised constructor.
    pub fn build_with(
        kind: StoreKind,
        spec: StackSpec,
        noise: NoiseConfig,
        trace: &Trace,
        placement: &Placement,
        n: usize,
    ) -> Result<ShardedCluster, EngineError> {
        assert!(n >= 1, "need at least one shard");
        let mut shards = Vec::with_capacity(n);
        for shard in 0..n {
            let sub = shard_trace(trace, shard, n);
            let mut cfg = noise;
            cfg.seed = noise.seed.wrapping_add(shard as u64);
            let server = Server::build_with(kind, spec.clone(), cfg, &sub, placement.clone())?;
            shards.push(Mutex::new(server));
        }
        Ok(ShardedCluster {
            shards,
            store: kind,
        })
    }

    /// Install a fault plan across the cluster: every shard gets the
    /// plan's degradation profile, and shard crash schedules are routed
    /// to their shard index. Injection is keyed off each shard's own
    /// simulated clock, so faulted runs stay byte-identical for every
    /// `--jobs` worker count.
    pub fn install_fault_plan(&self, plan: &mnemo_faults::FaultPlan) {
        let profile = plan.degradation_profile();
        for (i, shard) in self.shards.iter().enumerate() {
            let mut server = shard.lock();
            server.set_degradation(if profile.is_empty() {
                None
            } else {
                Some(profile.clone())
            });
            server.set_crash_schedule(plan.shard_crashes(i));
        }
    }

    /// Run the trace: requests are routed to their shard, shards execute
    /// concurrently as coarse jobs on the bounded pool (a 64-shard
    /// cluster no longer spawns 64 client threads), and the merged
    /// report uses the slowest shard's runtime as the cluster runtime.
    /// Shard runtimes are simulated clock time, so the merged report is
    /// independent of the worker count.
    pub fn run(&self, trace: &Trace) -> RunReport {
        let n = self.shards.len();
        let subs: Vec<Trace> = (0..n).map(|s| shard_trace(trace, s, n)).collect();
        // mnemo-lint: allow(D007, "reachable sum is predict's in-task dot product; shard reports merge in shard order")
        let reports = mnemo_par::Pool::current().run_jobs(n, |s| {
            let mut server = self.shards[s].lock();
            server.run(&subs[s])
        });
        merge_reports(self.store, trace, reports)
    }

    /// [`Self::run`] with telemetry: every shard rolls its own epoch log
    /// over its slice of the trace, and the per-shard snapshots are
    /// folded epoch-index by epoch-index in *shard order* — not
    /// completion order — so the merged snapshots (and their exported
    /// bytes) are identical for every `--jobs` value. Each shard also
    /// contributes its simulated runtime as the `kv.shard.runtime_ns`
    /// gauge, whose max across shards is the cluster runtime.
    pub fn run_telemetered(
        &self,
        trace: &Trace,
        epoch_len: u64,
    ) -> (RunReport, Vec<mnemo_telemetry::Snapshot>) {
        let n = self.shards.len();
        let subs: Vec<Trace> = (0..n).map(|s| shard_trace(trace, s, n)).collect();
        // run_jobs returns results in shard-index order regardless of
        // which worker finished first — the determinism anchor.
        // mnemo-lint: allow(D007, "predict's dot product is shard-local; snapshots fold in shard index order")
        let results = mnemo_par::Pool::current().run_jobs(n, |s| {
            let mut server = self.shards[s].lock();
            server.run_telemetered(&subs[s], epoch_len)
        });
        let mut reports = Vec::with_capacity(n);
        let mut per_shard = Vec::with_capacity(n);
        for (report, snaps) in results {
            reports.push(report);
            per_shard.push(snaps);
        }
        let mut merged = mnemo_telemetry::epoch::merge_epoch_logs(&per_shard);
        if let Some(last) = merged.last_mut() {
            let mut cluster = mnemo_telemetry::Recorder::new();
            cluster.count("kv.shards", n as u64);
            for r in &reports {
                cluster.gauge("kv.shard.runtime_ns", r.runtime_ns);
            }
            last.merge(&cluster.take_snapshot(last.epoch()));
        }
        (merge_reports(self.store, trace, reports), merged)
    }
}

/// The sub-trace (dataset + requests) owned by `shard` of `n`.
///
/// Key ids are preserved — each shard's server simply only loads and
/// serves the keys hashing to it.
fn shard_trace(trace: &Trace, shard: usize, n: usize) -> Trace {
    let owns = |key: u64| (key as usize) % n == shard;
    // Non-owned keys get a 1-byte stub so key ids stay aligned; the shard
    // never receives requests for them.
    let sizes = trace
        .sizes
        .iter()
        .enumerate()
        .map(|(k, &b)| if owns(k as u64) { b } else { 1 })
        .collect();
    // Count first: a filtered collect has no size hint, and the doubling
    // growth would be paid once per shard per run.
    let owned = trace.requests.iter().filter(|r| owns(r.key)).count();
    let mut requests = Vec::with_capacity(owned);
    requests.extend(trace.requests.iter().copied().filter(|r| owns(r.key)));
    Trace {
        name: format!("{} [shard {shard}/{n}]", trace.name),
        sizes,
        requests,
    }
}

/// Fold shard reports in shard order: counts and totals add up, the
/// slowest shard's runtime is the cluster's.
fn merge_reports(store: StoreKind, trace: &Trace, reports: Vec<RunReport>) -> RunReport {
    let mut merged = RunReport::empty(store, trace);
    // Counted from what the shards served, not from the trace.
    merged.requests = 0;
    for r in reports {
        merged.requests += r.requests;
        merged.runtime_ns = merged.runtime_ns.max(r.runtime_ns);
        merged.reads += r.reads;
        merged.writes += r.writes;
        merged.read_ns_total += r.read_ns_total;
        merged.write_ns_total += r.write_ns_total;
        // Histograms and samples survive the merge only if every shard
        // kept them.
        merged.histograms = merged.histograms.zip(r.histograms).map(|(mut all, shard)| {
            all.read.merge(&shard.read);
            all.write.merge(&shard.write);
            all
        });
        merged.samples = merged.samples.zip(r.samples).map(|(mut all, shard)| {
            all.extend(shard);
            all
        });
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::WorkloadSpec;

    fn trace() -> Trace {
        WorkloadSpec::timeline().scaled(128, 4_000).generate(4)
    }

    /// A one-shard cluster is the plain server, bit for bit: every
    /// store, over three workload shapes and all three placement kinds.
    #[test]
    fn one_shard_equals_plain_server() {
        let specs = [
            WorkloadSpec::timeline(),
            WorkloadSpec::trending(),
            WorkloadSpec::edit_thumbnail(),
        ];
        for spec in specs {
            let t = spec.scaled(300, 6_000).generate(4);
            let placements = [
                ("AllFast", Placement::AllFast),
                ("AllSlow", Placement::AllSlow),
                (
                    "FastSet",
                    Placement::FastSet((0..t.keys()).step_by(3).collect()),
                ),
            ];
            for store in StoreKind::ALL {
                for (label, placement) in &placements {
                    let cr = ShardedCluster::build(store, &t, placement, 1)
                        .unwrap()
                        .run(&t);
                    let sr = Server::build(store, &t, placement.clone()).unwrap().run(&t);
                    let cell = format!("{} {} {label}", store.name(), t.name);
                    assert_eq!(cr.requests, sr.requests, "{cell}");
                    assert_eq!(cr.reads, sr.reads, "{cell}");
                    assert_eq!(cr.writes, sr.writes, "{cell}");
                    assert_eq!(cr.runtime_ns.to_bits(), sr.runtime_ns.to_bits(), "{cell}");
                    assert_eq!(
                        cr.read_ns_total.to_bits(),
                        sr.read_ns_total.to_bits(),
                        "{cell}"
                    );
                    assert_eq!(
                        cr.write_ns_total.to_bits(),
                        sr.write_ns_total.to_bits(),
                        "{cell}"
                    );
                    assert!(cr.histograms == sr.histograms, "{cell}");
                    assert!(cr.samples == sr.samples, "{cell}");
                }
            }
        }
    }

    #[test]
    fn all_requests_are_served_exactly_once() {
        let t = trace();
        for n in [2, 4, 7] {
            let cluster =
                ShardedCluster::build(StoreKind::Redis, &t, &Placement::AllFast, n).unwrap();
            let r = cluster.run(&t);
            assert_eq!(r.requests, t.len(), "n={n}");
            assert_eq!(r.reads + r.writes, t.len() as u64);
            assert_eq!(r.samples.as_ref().map(Vec::len), Some(t.len()));
        }
    }

    #[test]
    fn sharding_reduces_cluster_runtime() {
        let t = trace();
        let one = ShardedCluster::build(StoreKind::Redis, &t, &Placement::AllFast, 1)
            .unwrap()
            .run(&t);
        let four = ShardedCluster::build(StoreKind::Redis, &t, &Placement::AllFast, 4)
            .unwrap()
            .run(&t);
        assert!(
            four.runtime_ns < one.runtime_ns / 2.0,
            "4 shards {} vs 1 shard {}",
            four.runtime_ns,
            one.runtime_ns
        );
    }

    #[test]
    fn shard_traces_partition_requests() {
        let t = trace();
        let n = 3;
        let subs: Vec<Trace> = (0..n).map(|s| shard_trace(&t, s, n)).collect();
        let total: usize = subs.iter().map(|s| s.len()).sum();
        assert_eq!(total, t.len());
        for (s, sub) in subs.iter().enumerate() {
            for r in &sub.requests {
                assert_eq!(r.key as usize % n, s);
            }
        }
    }

    #[test]
    fn telemetered_cluster_merges_shard_epochs() {
        let t = trace();
        let cluster = ShardedCluster::build(StoreKind::Redis, &t, &Placement::AllFast, 4).unwrap();
        let (report, snaps) = cluster.run_telemetered(&t, 500);
        assert_eq!(report.requests, t.len());
        assert!(!snaps.is_empty());
        let requests: u64 = snaps.iter().map(|s| s.counter("kv.requests")).sum();
        assert_eq!(requests, t.len() as u64);
        // Cluster-level metrics land on the final epoch.
        let last = snaps.last().unwrap();
        assert_eq!(last.counter("kv.shards"), 4);
        let runtime = last.gauge("kv.shard.runtime_ns").unwrap();
        assert_eq!(runtime.count, 4);
        assert_eq!(runtime.max, report.runtime_ns);
    }

    #[test]
    fn fault_plan_routes_crashes_to_their_shard() {
        use mnemo_faults::{FaultEvent, FaultPlan};
        let t = trace();
        let cluster = ShardedCluster::build(StoreKind::Redis, &t, &Placement::AllFast, 4).unwrap();
        let clean = cluster.run(&t);
        let restart = clean.runtime_ns * 4.0;
        cluster.install_fault_plan(&FaultPlan::new(3).with(FaultEvent::ShardCrash {
            shard: 1,
            at_ns: 0,
            restart_ns: restart,
            rebuild_ns_per_key: 0.0,
        }));
        let (faulted, snaps) = cluster.run_telemetered(&t, 0);
        let crashes: u64 = snaps
            .iter()
            .map(|s| s.counter("kv.fault.shard_crashes"))
            .sum();
        assert_eq!(crashes, 1, "only shard 1 crashes");
        // The crashed shard's recovery dominates the cluster runtime.
        assert!(
            faulted.runtime_ns > clean.runtime_ns + restart * 0.9,
            "faulted {} vs clean {} + restart {}",
            faulted.runtime_ns,
            clean.runtime_ns,
            restart
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let t = trace();
        let _ = ShardedCluster::build(StoreKind::Redis, &t, &Placement::AllFast, 0);
    }
}
