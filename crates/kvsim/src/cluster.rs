//! The paper's two-instance deployment.
//!
//! Section II: "we run two server instances on the same testbed ... bind
//! the execution of the server processes to the CPU cores of the FastMem
//! socket, and their memory allocations to one memory node, either FastMem
//! or SlowMem exclusively", with a modified YCSB client that "can redirect
//! requests across the two server instances".
//!
//! [`TwoInstanceCluster`] reproduces that architecture literally: a
//! FastMem-bound [`Server`], a SlowMem-bound [`Server`], and a
//! client-side router keyed on the placement set. Each instance runs its
//! share of the trace on the one server loop, and the router merges the
//! two runs back into trace order. The result equals a single
//! placement-aware [`Server`] bit for bit when either instance is empty,
//! and to a few percent otherwise (each instance has its own LLC and
//! index); the cluster exists so the Placement Engine can populate
//! *servers*, as in the paper.

use crate::engine::EngineError;
use crate::profile::StoreKind;
use crate::server::{make_engine, Placement, RunReport, Server};
use hybridmem::clock::NoiseConfig;
use hybridmem::{DetHashSet, StackSpec, TierId};
use ycsb::Trace;

/// A FastMem server + SlowMem server pair with client-side routing.
pub struct TwoInstanceCluster {
    fast: Server,
    slow: Server,
    fast_keys: DetHashSet<u64>,
}

impl TwoInstanceCluster {
    /// Deploy both instances on the paper testbed, with measurement
    /// noise disabled, and load the dataset: keys in `fast_keys` go to
    /// the FastServer, the rest to the SlowServer.
    pub fn build(
        kind: StoreKind,
        trace: &Trace,
        fast_keys: DetHashSet<u64>,
    ) -> Result<TwoInstanceCluster, EngineError> {
        let stack = StackSpec::paper_testbed();
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
        let instance = |engine| Server::assemble(engine, kind, NoiseConfig::disabled(), None, true);
        Ok(TwoInstanceCluster {
            fast: instance(fast),
            slow: instance(slow),
            fast_keys,
        })
    }

    /// Deploy from a [`Placement`].
    pub fn from_placement(
        kind: StoreKind,
        trace: &Trace,
        placement: &Placement,
    ) -> Result<TwoInstanceCluster, EngineError> {
        let fast_keys = (0..trace.keys())
            .filter(|&k| placement.tier_of(k) == TierId::FAST)
            .collect();
        TwoInstanceCluster::build(kind, trace, fast_keys)
    }

    /// Which instance a key routes to.
    pub fn route(&self, key: u64) -> TierId {
        if self.fast_keys.contains(&key) {
            TierId::FAST
        } else {
            TierId::SLOW
        }
    }

    /// Number of keys held by each instance, `(fast, slow)`.
    pub fn key_split(&self) -> (usize, usize) {
        (
            self.fast.engine().key_count(),
            self.slow.engine().key_count(),
        )
    }

    /// Bytes held by each instance, `(fast, slow)`.
    pub fn byte_split(&self) -> (u64, u64) {
        (
            self.fast.engine().bytes_in(TierId::FAST),
            self.slow.engine().bytes_in(TierId::SLOW),
        )
    }

    /// Execute the trace through the router: each instance serves its
    /// share in trace order, and the merged report records every request
    /// in trace order. The instances' clocks are integer nanosecond sums,
    /// so the merged samples rounded into one clock give their total.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        let share = |fast: bool| Trace {
            name: trace.name.clone(),
            sizes: trace.sizes.clone(),
            requests: trace
                .requests
                .iter()
                .filter(|r| self.fast_keys.contains(&r.key) == fast)
                .copied()
                .collect(),
        };
        let (fast_share, slow_share) = (share(true), share(false));
        let fast = self.fast.run(&fast_share);
        let slow = self.slow.run(&slow_share);
        let (mut fast_samples, mut slow_samples) = (
            fast.samples.into_iter().flatten(),
            slow.samples.into_iter().flatten(),
        );
        // Each request has exactly one sample in its instance's run.
        let samples = trace.requests.iter().filter_map(|r| {
            if self.fast_keys.contains(&r.key) {
                fast_samples.next()
            } else {
                slow_samples.next()
            }
        });
        RunReport::from_samples(self.fast.store(), trace, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::{Op, WorkloadSpec};

    fn trace() -> Trace {
        WorkloadSpec::trending().scaled(200, 3_000).generate(9)
    }

    #[test]
    fn routing_respects_fast_set() {
        let t = trace();
        let fast: DetHashSet<u64> = (0..50).collect();
        let c = TwoInstanceCluster::build(StoreKind::Redis, &t, fast).unwrap();
        assert_eq!(c.route(10), TierId::FAST);
        assert_eq!(c.route(60), TierId::SLOW);
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

    /// Every store on three Table III shapes at 300 keys / 6,000 requests.
    fn cells() -> Vec<(StoreKind, Trace)> {
        let mut cells = Vec::new();
        for store in StoreKind::ALL {
            for spec in [
                WorkloadSpec::trending(),
                WorkloadSpec::edit_thumbnail(),
                WorkloadSpec::timeline(),
            ] {
                cells.push((store, spec.scaled(300, 6_000).generate(9)));
            }
        }
        cells
    }

    fn assert_bit_identical(a: &RunReport, b: &RunReport, what: &str) {
        assert_eq!(a.runtime_ns.to_bits(), b.runtime_ns.to_bits(), "{what}");
        assert_eq!(
            a.read_ns_total.to_bits(),
            b.read_ns_total.to_bits(),
            "{what}"
        );
        assert_eq!(
            a.write_ns_total.to_bits(),
            b.write_ns_total.to_bits(),
            "{what}"
        );
        assert_eq!((a.reads, a.writes), (b.reads, b.writes), "{what}");
        assert!(a.histograms == b.histograms, "{what}: histograms");
        assert!(a.samples == b.samples, "{what}: samples");
    }

    #[test]
    fn empty_fast_set_equals_all_slow() {
        for (store, t) in cells() {
            let cluster = TwoInstanceCluster::build(store, &t, DetHashSet::default())
                .unwrap()
                .run(&t);
            let server = Server::build(store, &t, Placement::AllSlow)
                .unwrap()
                .run(&t);
            assert_bit_identical(&cluster, &server, &format!("{store} / {}", t.name));
        }
    }

    #[test]
    fn full_fast_set_equals_all_fast() {
        for (store, t) in cells() {
            let cluster = TwoInstanceCluster::build(store, &t, (0..t.keys()).collect())
                .unwrap()
                .run(&t);
            let server = Server::build(store, &t, Placement::AllFast)
                .unwrap()
                .run(&t);
            assert_bit_identical(&cluster, &server, &format!("{store} / {}", t.name));
        }
    }

    /// FNV-64 over every sample's key, op and service-time bits.
    fn samples_fnv(report: &RunReport) -> u64 {
        report
            .samples
            .iter()
            .flatten()
            .fold(mnemo_codec::FNV64_OFFSET, |h, s| {
                let h = mnemo_codec::fnv64_chain(h, &s.key.to_le_bytes());
                let h = mnemo_codec::fnv64_chain(h, &[u8::from(s.op == Op::Update)]);
                mnemo_codec::fnv64_chain(h, &s.service_ns.to_bits().to_le_bytes())
            })
    }

    #[test]
    fn split_cluster_runs_are_pinned() {
        // (runtime_ns bits, samples FNV-64) with the first third of the
        // keys on the FastMem instance, in `cells()` order.
        const PINNED: [(u64, u64); 9] = [
            (0x41c4ebd86c800000, 0x8ec2a8536f66b538),
            (0x41c4519044800000, 0x5f4b8f1dbc8a6836),
            (0x41c47abb41000000, 0xcf668e45b55de8c5),
            (0x41d19f5969c00000, 0x1d38deac45df4d06),
            (0x41d239041f000000, 0x1f591aeaa0734bc9),
            (0x41d52d322d800000, 0x83e1fa982b17b403),
            (0x41e6ba4ed4a00000, 0x65ae11199fcfcfc5),
            (0x41e68e1dc4c00000, 0xcc90af09924c9312),
            (0x41e69d7710e00000, 0xe0952ec442f987a7),
        ];
        for ((store, t), &(runtime_bits, fnv)) in cells().iter().zip(&PINNED) {
            let fast = (0..t.keys() / 3).collect();
            let report = TwoInstanceCluster::build(*store, t, fast).unwrap().run(t);
            let what = format!("{store} / {}", t.name);
            assert_eq!(report.runtime_ns.to_bits(), runtime_bits, "{what}: runtime");
            assert_eq!(samples_fnv(&report), fnv, "{what}: samples");
        }
    }

    #[test]
    fn from_placement_constructor() {
        let t = trace();
        let c = TwoInstanceCluster::from_placement(StoreKind::Memcached, &t, &Placement::AllFast)
            .unwrap();
        assert_eq!(c.key_split().0, 200);
    }
}
