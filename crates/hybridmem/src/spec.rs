//! Memory tier timing specifications (the paper's Table I).

/// Identifier of one tier in an ordered N-tier hierarchy: index 0 is
/// the topmost (fastest, most expensive) tier and indices grow downward.
///
/// The paper's two tiers are [`TierId::FAST`] (FastMem, DRAM-like: high
/// bandwidth, low latency) and [`TierId::SLOW`] (SlowMem, NVDIMM-like:
/// lower bandwidth, higher latency, but cheaper per byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TierId(pub u8);

impl TierId {
    /// The paper's FastMem tier (stack index 0).
    pub const FAST: TierId = TierId(0);
    /// The paper's SlowMem tier (stack index 1).
    pub const SLOW: TierId = TierId(1);

    /// Position in the stack, top (fastest) first.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for TierId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load: latency-exposed — the requester waits for the data.
    Read,
    /// A store: partially latency-hidden by store buffering / asynchronous
    /// write-back, per the paper's observation that "write heavy workloads
    /// ... are less impacted by the heterogeneity of the memory subsystem".
    Write,
}

/// Timing model of one memory tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Idle read latency in nanoseconds (first-word).
    pub read_latency_ns: f64,
    /// Sustained bandwidth in bytes per nanosecond (== GB/s).
    pub bandwidth_bytes_per_ns: f64,
    /// Fraction of the read latency a store still exposes after store
    /// buffering (0 = fully hidden, 1 = as exposed as a load).
    pub write_latency_factor: f64,
    /// Effective bandwidth multiplier for streaming writes: asynchronous
    /// write-back overlaps the transfer with computation, so the requester
    /// observes a higher apparent bandwidth.
    pub write_overlap_factor: f64,
}

impl TierSpec {
    /// Paper Table I FastMem row: 65.7 ns, 14.9 GB/s.
    pub fn paper_fastmem() -> TierSpec {
        TierSpec {
            read_latency_ns: 65.7,
            bandwidth_bytes_per_ns: 14.9,
            write_latency_factor: 0.2,
            write_overlap_factor: 3.0,
        }
    }

    /// Paper Table I SlowMem row: 238.1 ns, 1.81 GB/s — i.e. bandwidth
    /// throttled to 0.12x and latency raised to 3.62x of DRAM.
    pub fn paper_slowmem() -> TierSpec {
        TierSpec {
            read_latency_ns: 238.1,
            bandwidth_bytes_per_ns: 1.81,
            write_latency_factor: 0.2,
            write_overlap_factor: 3.0,
        }
    }

    /// An Optane DC PMM-like tier, from published device measurements
    /// (Izraelevitz et al.): ~305 ns read latency, ~6.6 GB/s read
    /// bandwidth per DIMM with writes at roughly a third of that — the
    /// hardware the paper anticipated ("Intel's upcoming Optane DC
    /// Persistent Memory"). The write asymmetry is modelled through a
    /// reduced write-overlap factor on top of the shared bandwidth field.
    pub fn optane_dc() -> TierSpec {
        TierSpec {
            read_latency_ns: 305.0,
            bandwidth_bytes_per_ns: 6.6,
            write_latency_factor: 0.31,
            // Effective write bandwidth ~2.3 GB/s = 0.35x the read
            // bandwidth: Optane writes are device-limited, so the overlap
            // factor models the *asymmetry* here, not async draining.
            write_overlap_factor: 0.35,
        }
    }

    /// Derive a slow tier from a fast one by the paper's B/L factors
    /// (`B:x` = bandwidth multiplier, `L:y` = latency multiplier).
    pub fn derived(fast: &TierSpec, bandwidth_factor: f64, latency_factor: f64) -> TierSpec {
        assert!(bandwidth_factor > 0.0 && latency_factor > 0.0);
        TierSpec {
            read_latency_ns: fast.read_latency_ns * latency_factor,
            bandwidth_bytes_per_ns: fast.bandwidth_bytes_per_ns * bandwidth_factor,
            write_latency_factor: fast.write_latency_factor,
            write_overlap_factor: fast.write_overlap_factor,
        }
    }

    /// Time in nanoseconds to move `bytes` for the given access kind,
    /// including the (possibly damped) latency component.
    pub fn access_ns(&self, kind: AccessKind, bytes: u64) -> f64 {
        match kind {
            AccessKind::Read => self.read_latency_ns + bytes as f64 / self.bandwidth_bytes_per_ns,
            AccessKind::Write => {
                self.read_latency_ns * self.write_latency_factor
                    + bytes as f64 / (self.bandwidth_bytes_per_ns * self.write_overlap_factor)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_time_has_latency_plus_transfer() {
        let fast = TierSpec::paper_fastmem();
        let t0 = fast.access_ns(AccessKind::Read, 0);
        assert!((t0 - 65.7).abs() < 1e-9);
        let t = fast.access_ns(AccessKind::Read, 14_900);
        // 14_900 bytes at 14.9 B/ns = 1000 ns of transfer.
        assert!((t - (65.7 + 1000.0)).abs() < 1e-6);
    }

    #[test]
    fn writes_are_less_exposed_than_reads() {
        for spec in [TierSpec::paper_fastmem(), TierSpec::paper_slowmem()] {
            for bytes in [64, 1024, 100 * 1024] {
                assert!(
                    spec.access_ns(AccessKind::Write, bytes)
                        < spec.access_ns(AccessKind::Read, bytes),
                    "bytes={bytes}"
                );
            }
        }
    }

    #[test]
    fn slow_tier_slower_for_all_sizes() {
        let fast = TierSpec::paper_fastmem();
        let slow = TierSpec::paper_slowmem();
        for bytes in [0, 64, 1024, 10 * 1024, 100 * 1024] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                assert!(slow.access_ns(kind, bytes) > fast.access_ns(kind, bytes));
            }
        }
    }

    #[test]
    fn derived_tier_applies_factors() {
        let fast = TierSpec::paper_fastmem();
        let slow = TierSpec::derived(&fast, 0.12, 3.62);
        assert!((slow.read_latency_ns - 65.7 * 3.62).abs() < 1e-9);
        assert!((slow.bandwidth_bytes_per_ns - 14.9 * 0.12).abs() < 1e-9);
    }

    #[test]
    fn optane_sits_between_table1_tiers() {
        let fast = TierSpec::paper_fastmem();
        let slow = TierSpec::paper_slowmem();
        let optane = TierSpec::optane_dc();
        // Bandwidth: slower than DRAM, faster than the throttled emulation.
        assert!(optane.bandwidth_bytes_per_ns < fast.bandwidth_bytes_per_ns);
        assert!(optane.bandwidth_bytes_per_ns > slow.bandwidth_bytes_per_ns);
        // Latency: worse than both DRAM and the throttled node (real PMM
        // latency exceeds what DRAM throttling can emulate).
        assert!(optane.read_latency_ns > slow.read_latency_ns);
        // Writes are markedly slower than reads at streaming sizes
        // (asymmetric device bandwidth) but latency-damped at small ones.
        let read = optane.access_ns(AccessKind::Read, 1 << 20);
        let write = optane.access_ns(AccessKind::Write, 1 << 20);
        assert!(write > read * 2.0, "streaming writes are bandwidth-starved");
        assert!(
            optane.access_ns(AccessKind::Write, 64) < optane.access_ns(AccessKind::Read, 64),
            "small writes still hide latency in buffers"
        );
    }
}
