//! Deterministic hash collections.
//!
//! `std`'s `HashMap`/`HashSet` seed their hasher from process-local
//! randomness (`RandomState`), so iteration order differs run to run —
//! one stray iteration on a result path silently breaks the workspace's
//! byte-identical `--jobs N` guarantee. The D002 lint therefore bans
//! the default-hasher types outside tests; code that wants O(1) lookups
//! uses these aliases instead, built on a fixed-seed FNV-1a hasher:
//! same process, same build, same iteration order, every run.
//!
//! When iteration order must additionally be *meaningful* (sorted keys
//! in an export, ordered sweeps), prefer `BTreeMap`/`BTreeSet` — these
//! aliases only promise stability, not ordering.
//!
//! Construction: the aliases carry a non-default hasher, so use
//! `DetHashMap::default()` / [`det_map`] / [`det_set`] /
//! `with_capacity_and_hasher` rather than `new()`.

use std::hash::{BuildHasher, Hasher};

/// Fixed-seed FNV-1a, 64-bit. Not DoS-resistant — keys here are
/// simulator-internal ids, not attacker-controlled input.
#[derive(Debug, Clone, Copy)]
pub struct DetHasher {
    hash: u64,
}

impl Default for DetHasher {
    fn default() -> DetHasher {
        DetHasher {
            hash: mnemo_codec::FNV64_OFFSET,
        }
    }
}

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        self.hash = mnemo_codec::fnv64_chain(self.hash, bytes);
    }
}

/// [`BuildHasher`] yielding [`DetHasher`]s — the deterministic stand-in
/// for `RandomState`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildDetHasher;

impl BuildHasher for BuildDetHasher {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher::default()
    }
}

/// `HashMap` with a fixed-seed hasher: deterministic iteration order.
// mnemo-lint: allow(D002, "this is the deterministic alias D002 points callers at")
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, BuildDetHasher>;

/// `HashSet` with a fixed-seed hasher: deterministic iteration order.
// mnemo-lint: allow(D002, "this is the deterministic alias D002 points callers at")
pub type DetHashSet<T> = std::collections::HashSet<T, BuildDetHasher>;

/// An empty [`DetHashMap`] (the aliases have no `new()`).
pub fn det_map<K, V>() -> DetHashMap<K, V> {
    DetHashMap::default()
}

/// An empty [`DetHashSet`].
pub fn det_set<T>() -> DetHashSet<T> {
    DetHashSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_order_is_stable_across_identical_maps() {
        let build = |offset: u64| {
            let mut m = det_map();
            for k in 0..1000u64 {
                m.insert(k * 7 + offset, k);
            }
            m.keys().copied().collect::<Vec<u64>>()
        };
        assert_eq!(build(0), build(0));
        // Different contents naturally order differently; same contents
        // never do.
        assert_ne!(build(0), build(1));
    }

    #[test]
    fn set_behaves_like_a_set() {
        let mut s = det_set();
        assert!(s.insert(42u64));
        assert!(!s.insert(42u64));
        assert!(s.contains(&42));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn hasher_matches_reference_fnv1a() {
        // FNV-1a of b"a" = 0xaf63dc4c8601ec8c.
        let mut h = DetHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn with_capacity_construction() {
        let m: DetHashMap<u64, u64> = DetHashMap::with_capacity_and_hasher(64, BuildDetHasher);
        assert!(m.capacity() >= 64);
    }
}
