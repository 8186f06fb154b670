//! Cache-mode deployment: FastMem as a DRAM cache over SlowMem.
//!
//! The paper explicitly scopes this *out*: "We do assume that SlowMem is
//! used as an extension of the flat memory address space, in other words
//! FastMem does not serve the purpose of caching for SlowMem." On real
//! Optane systems this excluded alternative exists as Intel's Memory
//! Mode, so the reproduction provides it as a comparator:
//!
//! * every value's home is SlowMem;
//! * a FastMem object cache (LRU, write-back) fronts it: hits are served
//!   at FastMem speed, misses pay the SlowMem read plus an admission
//!   write into FastMem, and evicting a dirty victim pays its write-back;
//! * unlike Mnemo's placement, nothing must be decided up front — but
//!   every miss pays admission traffic, and the operator still buys the
//!   same FastMem capacity.
//!
//! The `cache_mode` experiment compares this against Mnemo's static
//! partition at equal FastMem capacity.

use crate::engine::{EngineError, KvEngine};
use crate::profile::StoreKind;
use crate::server::{make_engine, RequestSample, RunReport};
use hybridmem::cache::ObjectLru;
use hybridmem::{AccessKind, DetHashSet, Histogram, HybridSpec, SimClock, StackSpec, TierId};
use ycsb::{Op, Trace};

/// Cache-mode statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheModeStats {
    /// Requests served from the FastMem cache.
    pub hits: u64,
    /// Requests that had to touch SlowMem.
    pub misses: u64,
    /// Dirty victims written back to SlowMem.
    pub writebacks: u64,
}

impl CacheModeStats {
    /// Request hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A server whose FastMem acts as an inclusive, write-back object cache
/// of SlowMem.
pub struct CacheModeServer {
    engine: Box<dyn KvEngine>,
    directory: ObjectLru,
    dirty: DetHashSet<u64>,
    spec: HybridSpec,
    store: StoreKind,
    stats: CacheModeStats,
}

impl CacheModeServer {
    /// Build over the paper testbed with a FastMem cache of
    /// `fast_capacity_bytes`; the dataset homes in SlowMem.
    pub fn build(
        kind: StoreKind,
        trace: &Trace,
        fast_capacity_bytes: u64,
    ) -> Result<CacheModeServer, EngineError> {
        Self::build_with(
            kind,
            HybridSpec::paper_testbed(),
            trace,
            fast_capacity_bytes,
        )
    }

    /// Build with an explicit testbed spec.
    pub fn build_with(
        kind: StoreKind,
        spec: HybridSpec,
        trace: &Trace,
        fast_capacity_bytes: u64,
    ) -> Result<CacheModeServer, EngineError> {
        let mut engine = make_engine(kind, StackSpec::two_tier(&spec))?;
        for (key, &bytes) in trace.sizes.iter().enumerate() {
            engine.load(key as u64, bytes, TierId::SLOW)?;
        }
        Ok(CacheModeServer {
            engine,
            directory: ObjectLru::new(fast_capacity_bytes),
            dirty: DetHashSet::default(),
            spec,
            store: kind,
            stats: CacheModeStats::default(),
        })
    }

    /// Cache statistics of the last run.
    pub fn stats(&self) -> CacheModeStats {
        self.stats
    }

    /// Admit `key` (of `bytes`) into the cache, charging the admission
    /// write and any dirty-victim write-backs.
    fn admit(&mut self, key: u64, bytes: u64) -> f64 {
        let mut ns = self.spec.fast.access_ns(AccessKind::Write, bytes);
        for victim in self.directory.insert_reporting(key, bytes) {
            if self.dirty.remove(&victim) {
                self.stats.writebacks += 1;
                let victim_bytes = self.engine.value_bytes(victim).unwrap_or(0);
                // Read the dirty copy from FastMem, write it home.
                ns += self.spec.fast.access_ns(AccessKind::Read, victim_bytes)
                    + self.spec.slow.access_ns(AccessKind::Write, victim_bytes);
            }
        }
        ns
    }

    fn serve(&mut self, key: u64, op: Op) -> f64 {
        let bytes = self
            .engine
            .value_bytes(key)
            // mnemo-lint: allow(R001, "build() loads every key of the trace at SlowMem before serving, so lookups cannot miss")
            .expect("trace references unloaded key");
        let profile = *self.engine.profile();
        if self.directory.touch(key) {
            // Hit: the whole request path runs at FastMem speed — index
            // walk and value traffic against the cached copy.
            self.stats.hits += 1;
            let kind = match op {
                Op::Read => AccessKind::Read,
                Op::Update => AccessKind::Write,
            };
            if op == Op::Update {
                self.dirty.insert(key);
            }
            let amp = match op {
                Op::Read => profile.read_amplification,
                Op::Update => profile.write_amplification,
            };
            profile.fixed_op_ns
                + profile.index_touches as f64
                    * self
                        .spec
                        .fast
                        .access_ns(AccessKind::Read, profile.touch_bytes)
                + amp * self.spec.fast.access_ns(kind, bytes)
        } else {
            // Miss: serve from the SlowMem home through the engine (LLC
            // included), then admit into the FastMem cache.
            self.stats.misses += 1;
            let home = match op {
                Op::Read => self.engine.get(key),
                Op::Update => self.engine.put(key),
            }
            // mnemo-lint: allow(R001, "build() loads every key of the trace at SlowMem before serving, so lookups cannot miss")
            .expect("trace references unloaded key");
            if op == Op::Update {
                self.dirty.insert(key);
            }
            home + self.admit(key, bytes)
        }
    }

    /// Execute the trace.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        self.engine.reset_measurement_state();
        self.stats = CacheModeStats::default();
        let mut clock = SimClock::new();
        let mut report = RunReport {
            store: self.store,
            workload: format!("{} [cache mode]", trace.name),
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
            let ns = self.serve(r.key, r.op);
            clock.advance(ns);
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
    use crate::server::{Placement, Server};
    use ycsb::WorkloadSpec;

    fn scaled_spec(trace: &Trace) -> HybridSpec {
        let mut spec = HybridSpec::paper_testbed();
        spec.cache.capacity_bytes = (trace.dataset_bytes() / 85).max(1 << 16);
        spec
    }

    #[test]
    fn hot_set_converges_to_high_hit_ratio() {
        let t = WorkloadSpec::trending().scaled(300, 9_000).generate(2);
        let budget = t.dataset_bytes() / 3; // comfortably holds the hot set
        let mut server =
            CacheModeServer::build_with(StoreKind::Redis, scaled_spec(&t), &t, budget).unwrap();
        let _ = server.run(&t);
        let stats = server.stats();
        assert!(
            stats.hit_ratio() > 0.6,
            "hit ratio {:.3}",
            stats.hit_ratio()
        );
    }

    #[test]
    fn cache_mode_beats_all_slow_and_loses_to_all_fast() {
        let t = WorkloadSpec::trending().scaled(250, 6_000).generate(4);
        let budget = t.dataset_bytes() / 4;
        let mut cm =
            CacheModeServer::build_with(StoreKind::Redis, scaled_spec(&t), &t, budget).unwrap();
        let cache_mode = cm.run(&t).throughput_ops_s();
        let run = |p: Placement| {
            Server::build_with(
                StoreKind::Redis,
                scaled_spec(&t),
                hybridmem::clock::NoiseConfig::disabled(),
                &t,
                p,
            )
            .unwrap()
            .run(&t)
            .throughput_ops_s()
        };
        assert!(
            cache_mode > run(Placement::AllSlow),
            "cache must help over no cache"
        );
        assert!(
            cache_mode < run(Placement::AllFast),
            "cache cannot beat all-DRAM"
        );
    }

    #[test]
    fn writebacks_happen_only_for_dirty_victims() {
        // Read-only workload: victims are clean, so no write-backs.
        let t = WorkloadSpec::timeline().scaled(300, 5_000).generate(5);
        let budget = t.dataset_bytes() / 10; // force evictions
        let mut server =
            CacheModeServer::build_with(StoreKind::Redis, scaled_spec(&t), &t, budget).unwrap();
        let _ = server.run(&t);
        assert!(server.stats().misses > 0);
        assert_eq!(server.stats().writebacks, 0, "read-only => clean victims");

        // Update-heavy workload under the same pressure: write-backs.
        let t = WorkloadSpec::edit_thumbnail()
            .scaled(300, 5_000)
            .generate(5);
        let mut server = CacheModeServer::build_with(
            StoreKind::Redis,
            scaled_spec(&t),
            &t,
            t.dataset_bytes() / 10,
        )
        .unwrap();
        let _ = server.run(&t);
        assert!(
            server.stats().writebacks > 0,
            "dirty victims must be written back"
        );
    }

    #[test]
    fn cache_mode_tracks_sliding_patterns_without_planning() {
        // News feed: cache-mode admission-on-access follows the window
        // instantly, unlike any static placement at the same capacity.
        let t = WorkloadSpec::news_feed().scaled(300, 12_000).generate(7);
        let budget = t.dataset_bytes() / 5;
        let mut cm =
            CacheModeServer::build_with(StoreKind::Redis, scaled_spec(&t), &t, budget).unwrap();
        let cache_mode = cm.run(&t).throughput_ops_s();

        // Static oracle at the same capacity.
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
        let static_tp = Server::build_with(
            StoreKind::Redis,
            scaled_spec(&t),
            hybridmem::clock::NoiseConfig::disabled(),
            &t,
            Placement::FastSet(fast),
        )
        .unwrap()
        .run(&t)
        .throughput_ops_s();
        assert!(
            cache_mode > static_tp,
            "cache mode {cache_mode:.0} must beat static {static_tp:.0} on news feed"
        );
    }
}
