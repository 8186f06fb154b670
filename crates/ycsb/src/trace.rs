//! Materialised request traces and the CDF utilities of Figs. 3 and 4.

/// Request type issued by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read the value of a key.
    Read,
    /// Overwrite the value of a key (same size).
    Update,
}

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Key index in `[0, keys)`.
    pub key: u64,
    /// Operation type.
    pub op: Op,
}

/// One observed key-value access, as seen by a streaming consumer: the
/// request plus the size of the record it touched.
///
/// This is the unit of Mnemo's *online* interface — where the offline
/// pipeline receives a whole [`Trace`] up front, a streaming profiler
/// receives an unbounded sequence of these (from [`Trace::events`] in
/// replay, or from a live server's event tap) and must summarise it in
/// bounded memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Key accessed.
    pub key: u64,
    /// Operation type.
    pub op: Op,
    /// Size of the stored record in bytes.
    pub bytes: u64,
}

/// A full workload trace: the per-key dataset plus the request sequence.
///
/// This is exactly the "workload descriptor" Mnemo's interface requires:
/// "a key sequence and the corresponding request type" plus the key-value
/// sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Workload name (Table III row).
    pub name: String,
    /// Stored value size per key; index = key id. `sizes.len()` is the key
    /// count.
    pub sizes: Vec<u64>,
    /// The request sequence.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Number of keys in the dataset.
    pub fn keys(&self) -> u64 {
        self.sizes.len() as u64
    }

    /// Total dataset footprint in bytes.
    pub fn dataset_bytes(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// How many distinct keys are actually requested.
    pub fn unique_keys_requested(&self) -> usize {
        let mut seen = vec![false; self.sizes.len()];
        let mut n = 0;
        for r in &self.requests {
            let k = r.key as usize;
            if !seen[k] {
                seen[k] = true;
                n += 1;
            }
        }
        n
    }

    /// Stream the trace as [`AccessEvent`]s, in request order — the
    /// replay form of a live server's event feed. The iterator borrows
    /// the trace and materialises nothing.
    pub fn events(&self) -> impl Iterator<Item = AccessEvent> + '_ {
        self.requests.iter().map(|r| AccessEvent {
            key: r.key,
            op: r.op,
            bytes: self.sizes[r.key as usize],
        })
    }

    /// Per-key request counts (reads, writes).
    pub fn key_counts(&self) -> Vec<(u64, u64)> {
        let mut counts = vec![(0u64, 0u64); self.sizes.len()];
        for r in &self.requests {
            match r.op {
                Op::Read => counts[r.key as usize].0 += 1,
                Op::Update => counts[r.key as usize].1 += 1,
            }
        }
        counts
    }

    /// Fraction of requests that are reads.
    pub fn read_fraction(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let reads = self.requests.iter().filter(|r| r.op == Op::Read).count();
        reads as f64 / self.requests.len() as f64
    }

    /// Fig. 3: CDF of request probability over the key space, *by key id*.
    /// Entry `k` is the probability that a request targets a key with id
    /// `<= k`.
    pub fn key_cdf(&self) -> Vec<f64> {
        let total = self.requests.len().max(1) as f64;
        let mut acc = 0u64;
        self.key_counts()
            .iter()
            .map(|&(r, w)| {
                acc += r + w;
                acc as f64 / total
            })
            .collect()
    }

    /// The "mass curve" behind Mnemo's intuition: sort keys hottest-first
    /// and report the cumulative request share captured by the hottest
    /// `i+1` keys. Entry 0 is the hottest key's share.
    pub fn hot_mass_curve(&self) -> Vec<f64> {
        let mut totals: Vec<u64> = self.key_counts().iter().map(|&(r, w)| r + w).collect();
        totals.sort_unstable_by(|a, b| b.cmp(a));
        let total = self.requests.len().max(1) as f64;
        let mut acc = 0u64;
        totals
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Trace {
        Trace {
            name: "tiny".into(),
            sizes: vec![100, 200, 300, 400],
            requests: vec![
                Request {
                    key: 0,
                    op: Op::Read,
                },
                Request {
                    key: 0,
                    op: Op::Read,
                },
                Request {
                    key: 1,
                    op: Op::Update,
                },
                Request {
                    key: 3,
                    op: Op::Read,
                },
            ],
        }
    }

    #[test]
    fn basic_accessors() {
        let t = tiny();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.keys(), 4);
        assert_eq!(t.dataset_bytes(), 1000);
        assert_eq!(t.unique_keys_requested(), 3);
        assert!((t.read_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn key_counts_split_ops() {
        let t = tiny();
        let c = t.key_counts();
        assert_eq!(c[0], (2, 0));
        assert_eq!(c[1], (0, 1));
        assert_eq!(c[2], (0, 0));
        assert_eq!(c[3], (1, 0));
    }

    #[test]
    fn key_cdf_ends_at_one() {
        let t = tiny();
        let cdf = t.key_cdf();
        assert_eq!(cdf.len(), 4);
        assert!((cdf[3] - 1.0).abs() < 1e-12);
        assert!((cdf[0] - 0.5).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn hot_mass_curve_sorts_hottest_first() {
        let t = tiny();
        let curve = t.hot_mass_curve();
        assert!(
            (curve[0] - 0.5).abs() < 1e-12,
            "hottest key has 2/4 requests"
        );
        assert!((curve[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace {
            name: "e".into(),
            sizes: vec![10],
            requests: vec![],
        };
        assert!(t.is_empty());
        assert_eq!(t.read_fraction(), 0.0);
        assert_eq!(t.key_cdf(), vec![0.0]);
    }

    #[test]
    fn events_replay_requests_with_sizes() {
        let t = tiny();
        let events: Vec<AccessEvent> = t.events().collect();
        assert_eq!(events.len(), t.len());
        assert_eq!(
            events[0],
            AccessEvent {
                key: 0,
                op: Op::Read,
                bytes: 100
            }
        );
        assert_eq!(
            events[2],
            AccessEvent {
                key: 1,
                op: Op::Update,
                bytes: 200
            }
        );
        assert_eq!(
            events[3],
            AccessEvent {
                key: 3,
                op: Op::Read,
                bytes: 400
            }
        );
        for (e, r) in events.iter().zip(&t.requests) {
            assert_eq!((e.key, e.op), (r.key, r.op));
            assert_eq!(e.bytes, t.sizes[r.key as usize]);
        }
    }
}
