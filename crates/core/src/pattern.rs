//! The Pattern Engine (Fig. 6, component 2).
//!
//! "Analyzes the request access pattern of the workload, and establishes
//! a relationship between the keys and requests Req(keys)."

use ycsb::{Op, Trace};

/// Per-key request statistics — `Req(keys)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyStats {
    /// Read requests to this key.
    pub reads: u64,
    /// Write requests to this key.
    pub writes: u64,
    /// Stored value size in bytes.
    pub bytes: u64,
}

impl KeyStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// The Pattern Engine: per-key statistics plus key orderings for
/// incremental FastMem sizing.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternEngine {
    stats: Vec<KeyStats>,
    touch_order: Vec<u64>,
}

impl PatternEngine {
    /// Analyse a trace.
    pub fn analyze(trace: &Trace) -> PatternEngine {
        let mut stats: Vec<KeyStats> = trace
            .sizes
            .iter()
            .map(|&bytes| KeyStats {
                reads: 0,
                writes: 0,
                bytes,
            })
            .collect();
        let mut touch_order = Vec::new();
        let mut touched = vec![false; trace.sizes.len()];
        for r in &trace.requests {
            let k = r.key as usize;
            match r.op {
                Op::Read => stats[k].reads += 1,
                Op::Update => stats[k].writes += 1,
            }
            if !touched[k] {
                touched[k] = true;
                touch_order.push(r.key);
            }
        }
        // Untouched keys close the ordering (they still occupy capacity
        // and appear at the end of the estimate curve).
        for (k, t) in touched.iter().enumerate() {
            if !t {
                touch_order.push(k as u64);
            }
        }
        PatternEngine { stats, touch_order }
    }

    /// Build a Pattern Engine directly from per-key statistics, without
    /// a materialised trace — the entry point for *approximate* patterns
    /// reconstructed by a streaming profiler (where no request sequence
    /// exists, only sketch-estimated `Req(keys)`).
    ///
    /// Since there is no request order to replay, the touch order is the
    /// key-id order; streaming callers should prefer the hotness or
    /// MnemoT orderings, which depend only on the statistics.
    pub fn from_stats(stats: Vec<KeyStats>) -> PatternEngine {
        let touch_order = (0..stats.len() as u64).collect();
        PatternEngine { stats, touch_order }
    }

    /// Per-key statistics, indexed by key id.
    pub fn stats(&self) -> &[KeyStats] {
        &self.stats
    }

    /// Statistics of one key.
    pub fn key(&self, key: u64) -> KeyStats {
        self.stats[key as usize]
    }

    /// Number of keys.
    pub fn key_count(&self) -> usize {
        self.stats.len()
    }

    /// Total requests analysed.
    pub fn total_requests(&self) -> u64 {
        self.stats.iter().map(KeyStats::accesses).sum()
    }

    /// Total dataset bytes.
    pub fn total_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes).sum()
    }

    /// The standalone-Mnemo ordering: keys "as they get accessed
    /// (touched) by the workload access pattern" (Fig. 2a), untouched
    /// keys last.
    pub fn touch_order(&self) -> &[u64] {
        &self.touch_order
    }

    /// Keys ordered by descending access count (hottest first) — the
    /// "transformed to a Trending version" ordering of §V-A. Ties break
    /// by key id for determinism.
    pub fn hotness_order(&self) -> Vec<u64> {
        let mut order: Vec<u64> = (0..self.stats.len() as u64).collect();
        order.sort_by_key(|&k| (std::cmp::Reverse(self.stats[k as usize].accesses()), k));
        order
    }

    /// Validate an externally supplied ordering (deployment Fig. 2b:
    /// "existing tiering solution" provides the DRAM key allocations):
    /// it must be a permutation of the key space.
    pub fn validate_order(&self, order: &[u64]) -> Result<(), OrderError> {
        if order.len() != self.stats.len() {
            return Err(OrderError::WrongLength {
                got: order.len(),
                want: self.stats.len(),
            });
        }
        let mut seen = vec![false; self.stats.len()];
        for &k in order {
            let idx = k as usize;
            if idx >= seen.len() {
                return Err(OrderError::UnknownKey(k));
            }
            if seen[idx] {
                return Err(OrderError::DuplicateKey(k));
            }
            seen[idx] = true;
        }
        Ok(())
    }
}

/// Problems with an externally supplied key ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderError {
    /// Not all keys are covered.
    WrongLength {
        /// Keys in the supplied ordering.
        got: usize,
        /// Keys in the workload.
        want: usize,
    },
    /// A key id outside the key space.
    UnknownKey(u64),
    /// A key listed twice.
    DuplicateKey(u64),
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderError::WrongLength { got, want } => {
                write!(f, "ordering covers {got} keys, workload has {want}")
            }
            OrderError::UnknownKey(k) => write!(f, "ordering references unknown key {k}"),
            OrderError::DuplicateKey(k) => write!(f, "ordering lists key {k} twice"),
        }
    }
}

impl std::error::Error for OrderError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::{Request, WorkloadSpec};

    fn tiny() -> Trace {
        Trace {
            name: "tiny".into(),
            sizes: vec![10, 20, 30, 40],
            requests: vec![
                Request {
                    key: 2,
                    op: Op::Read,
                },
                Request {
                    key: 0,
                    op: Op::Update,
                },
                Request {
                    key: 2,
                    op: Op::Read,
                },
                Request {
                    key: 1,
                    op: Op::Read,
                },
            ],
        }
    }

    #[test]
    fn stats_count_reads_and_writes() {
        let p = PatternEngine::analyze(&tiny());
        assert_eq!(
            p.key(2),
            KeyStats {
                reads: 2,
                writes: 0,
                bytes: 30
            }
        );
        assert_eq!(
            p.key(0),
            KeyStats {
                reads: 0,
                writes: 1,
                bytes: 10
            }
        );
        assert_eq!(p.key(3).accesses(), 0);
        assert_eq!(p.total_requests(), 4);
        assert_eq!(p.total_bytes(), 100);
    }

    #[test]
    fn touch_order_is_first_seen_then_untouched() {
        let p = PatternEngine::analyze(&tiny());
        assert_eq!(p.touch_order(), &[2, 0, 1, 3]);
    }

    #[test]
    fn hotness_order_sorts_by_access_count() {
        let p = PatternEngine::analyze(&tiny());
        let order = p.hotness_order();
        assert_eq!(order[0], 2);
        // Ties (keys 0 and 1, one access each) break by id.
        assert_eq!(&order[1..3], &[0, 1]);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn orders_are_permutations_on_real_workloads() {
        let t = WorkloadSpec::timeline().scaled(500, 5_000).generate(1);
        let p = PatternEngine::analyze(&t);
        p.validate_order(p.touch_order()).unwrap();
        p.validate_order(&p.hotness_order()).unwrap();
    }

    #[test]
    fn from_stats_matches_analyze_modulo_touch_order() {
        let t = WorkloadSpec::trending().scaled(200, 2_000).generate(3);
        let analyzed = PatternEngine::analyze(&t);
        let rebuilt = PatternEngine::from_stats(analyzed.stats().to_vec());
        assert_eq!(rebuilt.stats(), analyzed.stats());
        assert_eq!(rebuilt.hotness_order(), analyzed.hotness_order());
        assert_eq!(rebuilt.total_requests(), analyzed.total_requests());
        assert_eq!(rebuilt.total_bytes(), analyzed.total_bytes());
        rebuilt.validate_order(rebuilt.touch_order()).unwrap();
    }

    #[test]
    fn validate_order_rejects_bad_inputs() {
        let p = PatternEngine::analyze(&tiny());
        assert_eq!(
            p.validate_order(&[0, 1]),
            Err(OrderError::WrongLength { got: 2, want: 4 })
        );
        assert_eq!(
            p.validate_order(&[0, 1, 2, 9]),
            Err(OrderError::UnknownKey(9))
        );
        assert_eq!(
            p.validate_order(&[0, 1, 1, 2]),
            Err(OrderError::DuplicateKey(1))
        );
    }
}
