//! Object identity and simulated address assignment.
//!
//! Key-value pairs are simulated as *objects*: opaque blobs with a stable
//! [`ObjectId`], a byte size and a current tier. The
//! [`TierStack`](crate::stack::TierStack) serves every allocation from
//! exactly one tier — what `numactl`-bound server processes do in the
//! paper — while additionally supporting per-object placement and
//! migration, which is what Mnemo's Placement Engine needs.
//!
//! Simulated addresses are handed out per tier by a segregated
//! free-list (`TierArena`): freed blocks are recycled by size class
//! before the bump pointer grows. The addresses only need to be stable
//! and disjoint (they seed the cache models), not contiguous.

use crate::det::DetHashMap;

/// Stable identifier of a simulated object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Size-class segregated free list of simulated address ranges for one
/// tier. Blocks are recycled exactly (per rounded size class), so reuse
/// never aliases two live objects.
#[derive(Debug, Default, Clone)]
pub(crate) struct TierArena {
    bump: u64,
    /// size-class -> freed addresses.
    free: DetHashMap<u64, Vec<u64>>,
}

/// Round a size up to its allocation class: next power of two, with a
/// 256-byte floor (mirrors slab/jemalloc-style classing and bounds the
/// number of distinct free lists).
fn size_class(bytes: u64) -> u64 {
    bytes.max(256).next_power_of_two()
}

impl TierArena {
    pub(crate) fn alloc(&mut self, bytes: u64) -> u64 {
        let class = size_class(bytes);
        if let Some(list) = self.free.get_mut(&class) {
            if let Some(addr) = list.pop() {
                return addr;
            }
        }
        let addr = self.bump;
        self.bump += class;
        addr
    }

    pub(crate) fn dealloc(&mut self, addr: u64, bytes: u64) {
        self.free.entry(size_class(bytes)).or_default().push(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TierId;
    use crate::stack::{StackError, StackSpec, TierStack};
    use proptest::prelude::*;

    const FAST: TierId = TierId::FAST;
    const SLOW: TierId = TierId::SLOW;

    fn stack() -> TierStack {
        TierStack::new(StackSpec::paper_testbed()).unwrap()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = stack();
        let id = t.alloc(1000, FAST).unwrap();
        let p = t.placement(id).unwrap();
        assert_eq!(p.tier, FAST);
        assert_eq!(p.bytes, 1000);
        t.free(id).unwrap();
        assert_eq!(t.placement(id).unwrap_err(), StackError::UnknownObject(id));
    }

    #[test]
    fn zero_size_rejected() {
        assert_eq!(stack().alloc(0, FAST).unwrap_err(), StackError::ZeroSize);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut t = stack();
        let a = t.alloc(10, FAST).unwrap();
        t.free(a).unwrap();
        let b = t.alloc(10, FAST).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn addresses_disjoint_per_tier() {
        let mut t = stack();
        let ids: Vec<_> = (0..100).map(|_| t.alloc(300, FAST).unwrap()).collect();
        let mut addrs: Vec<u64> = ids.iter().map(|&i| t.placement(i).unwrap().addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 100, "live objects must not alias");
    }

    #[test]
    fn freed_addresses_are_recycled() {
        let mut t = stack();
        let a = t.alloc(1000, SLOW).unwrap();
        let addr = t.placement(a).unwrap().addr;
        t.free(a).unwrap();
        let b = t.alloc(900, SLOW).unwrap(); // same 1024-class
        assert_eq!(t.placement(b).unwrap().addr, addr);
    }

    #[test]
    fn migrate_moves_tier_and_keeps_size() {
        let mut t = stack();
        let id = t.alloc(5000, SLOW).unwrap();
        t.migrate(id, FAST).unwrap();
        let p = t.placement(id).unwrap();
        assert_eq!(p.tier, FAST);
        assert_eq!(p.bytes, 5000);
        // No-op migration: free, and the placement is untouched.
        assert_eq!(t.migrate(id, FAST).unwrap(), 0.0);
        assert_eq!(t.placement(id).unwrap(), p);
    }

    #[test]
    fn bytes_in_tier_accounting() {
        let mut t = stack();
        t.alloc(100, FAST).unwrap();
        t.alloc(200, FAST).unwrap();
        let s = t.alloc(300, SLOW).unwrap();
        assert_eq!(t.object_bytes_in(FAST), 300);
        assert_eq!(t.object_bytes_in(SLOW), 300);
        t.migrate(s, FAST).unwrap();
        assert_eq!(t.object_bytes_in(FAST), 600);
        assert_eq!(t.object_bytes_in(SLOW), 0);
    }

    #[test]
    fn size_class_properties() {
        assert_eq!(size_class(1), 256);
        assert_eq!(size_class(256), 256);
        assert_eq!(size_class(257), 512);
        assert_eq!(size_class(100 * 1024), 128 * 1024);
    }

    proptest! {
        #[test]
        fn live_objects_never_alias(ops in proptest::collection::vec((0u64..4, 1u64..10_000), 1..200)) {
            let mut t = stack();
            let mut live: Vec<ObjectId> = Vec::new();
            for (op, arg) in ops {
                match op {
                    0 | 1 => {
                        let tier = if op == 0 { FAST } else { SLOW };
                        live.push(t.alloc(arg, tier).unwrap());
                    }
                    2 if !live.is_empty() => {
                        let id = live.remove(arg as usize % live.len());
                        t.free(id).unwrap();
                    }
                    3 if !live.is_empty() => {
                        let id = live[arg as usize % live.len()];
                        let target = if arg % 2 == 0 { FAST } else { SLOW };
                        t.migrate(id, target).unwrap();
                    }
                    _ => {}
                }
                // Invariant: (tier, addr) pairs of live objects are unique.
                let mut seen = std::collections::HashSet::new();
                for (_, p) in t.objects() {
                    prop_assert!(seen.insert((p.tier, p.addr)), "aliased placement {p:?}");
                }
            }
            prop_assert_eq!(t.object_count(), live.len());
        }
    }
}
