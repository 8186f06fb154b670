//! Operation mixes: read / update / scan / read-modify-write ratios.
//!
//! The paper's Table III workloads only mix reads and updates, but they
//! are "adapted from the default YCSB workloads", which also include
//! scans (workload E) and read-modify-writes (workload F). This module
//! models the full mix. Scans and RMWs are *expanded at generation time*
//! into their primitive accesses — a scan of length `L` starting at key
//! `k` becomes `L` consecutive reads of keys `k, k+1, ...`, and an RMW
//! becomes a read followed by an update of the same key — which is
//! exactly the memory traffic the composite operations produce, and
//! keeps the whole estimation pipeline operating on primitive accesses.

use rand::rngs::StdRng;
use rand::RngExt;

/// The operation classes a workload can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Point read.
    Read,
    /// Point update (overwrite, same size).
    Update,
    /// Range scan of a drawn length.
    Scan,
    /// Read-modify-write of one key.
    ReadModifyWrite,
}

/// A normalised operation mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Weight of point reads.
    pub read: f64,
    /// Weight of point updates.
    pub update: f64,
    /// Weight of scans.
    pub scan: f64,
    /// Weight of read-modify-writes.
    pub rmw: f64,
    /// Maximum scan length (uniform in `1..=max_scan_len`), YCSB's
    /// `maxscanlength` (default 100).
    pub max_scan_len: u16,
}

impl OpMix {
    /// A reads-only mix.
    pub fn read_only() -> OpMix {
        OpMix {
            read: 1.0,
            update: 0.0,
            scan: 0.0,
            rmw: 0.0,
            max_scan_len: 1,
        }
    }

    /// A point read/update mix with the given read fraction.
    pub fn read_update(read_fraction: f64) -> OpMix {
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction out of range"
        );
        OpMix {
            read: read_fraction,
            update: 1.0 - read_fraction,
            scan: 0.0,
            rmw: 0.0,
            max_scan_len: 1,
        }
    }

    /// YCSB workload E's mix: scan-heavy (95% scans, 5% updates).
    pub fn scan_heavy() -> OpMix {
        OpMix {
            read: 0.0,
            update: 0.05,
            scan: 0.95,
            rmw: 0.0,
            max_scan_len: 100,
        }
    }

    /// YCSB workload F's mix: 50% reads, 50% read-modify-writes.
    pub fn rmw_heavy() -> OpMix {
        OpMix {
            read: 0.5,
            update: 0.0,
            scan: 0.0,
            rmw: 0.5,
            max_scan_len: 1,
        }
    }

    fn total(&self) -> f64 {
        self.read + self.update + self.scan + self.rmw
    }

    /// Validate the mix (non-negative weights, positive total, sane scan
    /// length).
    pub fn validate(&self) -> Result<(), String> {
        if self.read < 0.0 || self.update < 0.0 || self.scan < 0.0 || self.rmw < 0.0 {
            return Err("negative operation weight".into());
        }
        if self.total() <= 0.0 {
            return Err("operation weights sum to zero".into());
        }
        if self.scan > 0.0 && self.max_scan_len == 0 {
            return Err("scan weight set but max_scan_len is zero".into());
        }
        Ok(())
    }

    /// Draw the class of the next operation.
    pub fn sample(&self, rng: &mut StdRng) -> OpClass {
        let x: f64 = rng.random::<f64>() * self.total();
        if x < self.read {
            OpClass::Read
        } else if x < self.read + self.update {
            OpClass::Update
        } else if x < self.read + self.update + self.scan {
            OpClass::Scan
        } else {
            OpClass::ReadModifyWrite
        }
    }

    /// Draw a scan length.
    pub fn scan_len(&self, rng: &mut StdRng) -> u16 {
        if self.max_scan_len <= 1 {
            1
        } else {
            rng.random_range(1..=self.max_scan_len)
        }
    }

    /// The fraction of *primitive accesses* that are reads, in
    /// expectation (scans are reads; an RMW is one read + one write).
    pub fn expected_read_fraction(&self) -> f64 {
        let mean_scan = (1.0 + self.max_scan_len as f64) / 2.0;
        let reads = self.read + self.scan * mean_scan + self.rmw;
        let writes = self.update + self.rmw;
        reads / (reads + writes)
    }

    /// Expected primitive accesses per operation.
    pub fn expected_accesses_per_op(&self) -> f64 {
        let mean_scan = (1.0 + self.max_scan_len as f64) / 2.0;
        (self.read + self.update + self.scan * mean_scan + self.rmw * 2.0) / self.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn read_update_mix_ratios() {
        let mix = OpMix::read_update(0.7);
        let mut rng = rng();
        let mut reads = 0;
        for _ in 0..20_000 {
            if mix.sample(&mut rng) == OpClass::Read {
                reads += 1;
            }
        }
        let frac = reads as f64 / 20_000.0;
        assert!((frac - 0.7).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn scan_heavy_samples_scans() {
        let mix = OpMix::scan_heavy();
        let mut rng = rng();
        let mut scans = 0;
        for _ in 0..10_000 {
            if mix.sample(&mut rng) == OpClass::Scan {
                scans += 1;
            }
        }
        assert!(scans > 9_000, "scans {scans}");
    }

    #[test]
    fn scan_lengths_are_in_range() {
        let mix = OpMix::scan_heavy();
        let mut rng = rng();
        for _ in 0..1_000 {
            let len = mix.scan_len(&mut rng);
            assert!((1..=100).contains(&len));
        }
        assert_eq!(OpMix::read_only().scan_len(&mut rng), 1);
    }

    #[test]
    fn validation_catches_bad_mixes() {
        assert!(OpMix::read_only().validate().is_ok());
        let negative = OpMix {
            read: -1.0,
            ..OpMix::read_only()
        };
        assert!(negative.validate().is_err());
        let empty = OpMix {
            read: 0.0,
            update: 0.0,
            scan: 0.0,
            rmw: 0.0,
            max_scan_len: 1,
        };
        assert!(empty.validate().is_err());
        let bad_scan = OpMix {
            scan: 1.0,
            max_scan_len: 0,
            ..OpMix::read_only()
        };
        assert!(bad_scan.validate().is_err());
    }

    #[test]
    fn expected_read_fraction_formulas() {
        assert_eq!(OpMix::read_only().expected_read_fraction(), 1.0);
        assert_eq!(OpMix::read_update(0.5).expected_read_fraction(), 0.5);
        // RMW-heavy: per op, reads = 0.5 + 0.5, writes = 0.5 -> 2/3.
        let f = OpMix::rmw_heavy().expected_read_fraction();
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
        // Scan-heavy is read-dominated.
        assert!(OpMix::scan_heavy().expected_read_fraction() > 0.99);
    }

    #[test]
    fn accesses_per_op() {
        assert_eq!(OpMix::read_only().expected_accesses_per_op(), 1.0);
        assert_eq!(OpMix::rmw_heavy().expected_accesses_per_op(), 1.5);
        assert!(OpMix::scan_heavy().expected_accesses_per_op() > 40.0);
    }

    #[test]
    fn sampling_is_deterministic() {
        let mix = OpMix::scan_heavy();
        let a: Vec<OpClass> = {
            let mut r = rng();
            (0..50).map(|_| mix.sample(&mut r)).collect()
        };
        let b: Vec<OpClass> = {
            let mut r = rng();
            (0..50).map(|_| mix.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
