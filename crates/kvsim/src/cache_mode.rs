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
//! A cache-mode deployment is a [`Server`](crate::Server) built with
//! [`Server::build_cache_mode`](crate::Server::build_cache_mode): this
//! module holds only the front cache that prices its requests. The
//! `cache_mode` experiment compares it against Mnemo's static partition
//! at equal FastMem capacity.

use crate::engine::{EngineError, KvEngine};
use hybridmem::cache::ObjectLru;
use hybridmem::{AccessKind, DetHashSet, TierId, TierSpec};
use ycsb::Op;

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

/// An inclusive, write-back FastMem object cache in front of an engine
/// whose every key lives in SlowMem. The directory and dirty set carry
/// over between runs; the statistics are per run.
pub(crate) struct FrontCache {
    directory: ObjectLru,
    dirty: DetHashSet<u64>,
    stats: CacheModeStats,
}

impl FrontCache {
    /// An empty cache of `capacity_bytes`.
    pub(crate) fn new(capacity_bytes: u64) -> FrontCache {
        FrontCache {
            directory: ObjectLru::new(capacity_bytes),
            dirty: DetHashSet::default(),
            stats: CacheModeStats::default(),
        }
    }

    /// Statistics since the last [`Self::reset_stats`].
    pub(crate) fn stats(&self) -> CacheModeStats {
        self.stats
    }

    /// Start a run's statistics from zero.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheModeStats::default();
    }

    /// Admit `key` (of `bytes`) into the cache, charging the admission
    /// write and any dirty-victim write-backs.
    fn admit(&mut self, engine: &dyn KvEngine, key: u64, bytes: u64) -> f64 {
        let (fast, slow) = tier_specs(engine);
        let mut ns = fast.access_ns(AccessKind::Write, bytes);
        for victim in self.directory.insert_reporting(key, bytes) {
            if self.dirty.remove(&victim) {
                self.stats.writebacks += 1;
                let victim_bytes = engine.value_bytes(victim).unwrap_or(0);
                // Read the dirty copy from FastMem, write it home.
                ns += fast.access_ns(AccessKind::Read, victim_bytes)
                    + slow.access_ns(AccessKind::Write, victim_bytes);
            }
        }
        ns
    }

    /// The raw charge of one request: at FastMem speed on a hit, through
    /// the engine's SlowMem home plus the admission on a miss.
    pub(crate) fn serve(
        &mut self,
        engine: &mut dyn KvEngine,
        key: u64,
        op: Op,
    ) -> Result<f64, EngineError> {
        let bytes = engine
            .value_bytes(key)
            .ok_or(EngineError::UnknownKey(key))?;
        if op == Op::Update {
            self.dirty.insert(key);
        }
        if self.directory.touch(key) {
            // Hit: the whole request path runs at FastMem speed — index
            // walk and value traffic against the cached copy.
            self.stats.hits += 1;
            let profile = engine.profile();
            let (fast, _) = tier_specs(engine);
            let (kind, amp) = match op {
                Op::Read => (AccessKind::Read, profile.read_amplification),
                Op::Update => (AccessKind::Write, profile.write_amplification),
            };
            Ok(profile.fixed_op_ns
                + profile.index_touches as f64
                    * fast.access_ns(AccessKind::Read, profile.touch_bytes)
                + amp * fast.access_ns(kind, bytes))
        } else {
            // Miss: serve from the SlowMem home through the engine (LLC
            // included), then admit into the FastMem cache.
            self.stats.misses += 1;
            let home = match op {
                Op::Read => engine.get(key)?,
                Op::Update => engine.put(key)?,
            };
            Ok(home + self.admit(engine, key, bytes))
        }
    }
}

/// The FastMem and SlowMem timings of the engine's two-tier stack.
fn tier_specs(engine: &dyn KvEngine) -> (TierSpec, TierSpec) {
    let tiers = &engine.memory().spec().tiers;
    (
        tiers[TierId::FAST.index()].spec,
        tiers[TierId::SLOW.index()].spec,
    )
}

#[cfg(test)]
mod tests {
    use crate::profile::StoreKind;
    use crate::server::{Placement, Server};
    use hybridmem::StackSpec;
    use ycsb::{Trace, WorkloadSpec};

    fn scaled_spec(trace: &Trace) -> StackSpec {
        let mut spec = StackSpec::paper_testbed();
        spec.cache.capacity_bytes = (trace.dataset_bytes() / 85).max(1 << 16);
        spec
    }

    #[test]
    fn hot_set_converges_to_high_hit_ratio() {
        let t = WorkloadSpec::trending().scaled(300, 9_000).generate(2);
        let budget = t.dataset_bytes() / 3; // comfortably holds the hot set
        let mut server =
            Server::build_cache_mode(StoreKind::Redis, scaled_spec(&t), &t, budget).unwrap();
        let _ = server.run(&t);
        let stats = server.cache_mode_stats().unwrap();
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
            Server::build_cache_mode(StoreKind::Redis, scaled_spec(&t), &t, budget).unwrap();
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
            Server::build_cache_mode(StoreKind::Redis, scaled_spec(&t), &t, budget).unwrap();
        let _ = server.run(&t);
        assert!(server.cache_mode_stats().unwrap().misses > 0);
        assert_eq!(
            server.cache_mode_stats().unwrap().writebacks,
            0,
            "read-only => clean victims"
        );

        // Update-heavy workload under the same pressure: write-backs.
        let t = WorkloadSpec::edit_thumbnail()
            .scaled(300, 5_000)
            .generate(5);
        let mut server = Server::build_cache_mode(
            StoreKind::Redis,
            scaled_spec(&t),
            &t,
            t.dataset_bytes() / 10,
        )
        .unwrap();
        let _ = server.run(&t);
        assert!(
            server.cache_mode_stats().unwrap().writebacks > 0,
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
            Server::build_cache_mode(StoreKind::Redis, scaled_spec(&t), &t, budget).unwrap();
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
