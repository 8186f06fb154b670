//! The estimate curve — Mnemo's primary output.
//!
//! "As output, Mnemo will generate a text file in csv format with three
//! columns ... Each row contains a key identifier, the estimated
//! performance and cost reduction factor, when FastMem will service all
//! previous keys in the file and have capacity equal to the sum of their
//! corresponding values, whereas the rest of the keys ... will be
//! attributed to SlowMem."

use mnemo_codec::decimal::{push_fixed, push_u64};
use std::io::{self, Write};

/// Header line of the curve CSV.
const CSV_HEADER: &str = "key,estimated_throughput_ops_s,cost_reduction";

/// Bytes reserved per CSV row by [`EstimateCurve::to_csv`]: a key id, a
/// throughput with three decimals and a six-decimal ratio fit in it for
/// any paper-scale curve, so the string rarely reallocates.
const CSV_ROW_BYTES: usize = 32;

/// One row of the estimate curve: the state *after* placing `key` (and
/// all keys of earlier rows) in FastMem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveRow {
    /// Number of keys in FastMem at this row.
    pub prefix: usize,
    /// The key this row moved into FastMem; `None` for the initial
    /// all-SlowMem row.
    pub key: Option<u64>,
    /// FastMem capacity consumed (bytes).
    pub fast_bytes: u64,
    /// Memory-system cost relative to FastMem-only (`R(p)` of §II).
    pub cost_reduction: f64,
    /// Estimated total runtime (ns).
    pub est_runtime_ns: f64,
    /// Estimated throughput (ops/s).
    pub est_throughput_ops_s: f64,
}

impl CurveRow {
    /// Estimated average request latency (ns).
    pub fn est_avg_latency_ns(&self, requests: usize) -> f64 {
        if requests == 0 {
            0.0
        } else {
            self.est_runtime_ns / requests as f64
        }
    }
}

/// The full cost-vs-performance trade-off curve, one row per incremental
/// key tiering, from all-SlowMem (first row) to all-FastMem (last row).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateCurve {
    /// Rows in tiering order (`prefix` 0 ..= key count).
    pub rows: Vec<CurveRow>,
    /// Requests in the workload the curve was estimated for.
    pub requests: usize,
    /// Total dataset bytes.
    pub total_bytes: u64,
}

impl EstimateCurve {
    /// The all-SlowMem row (worst performance, lowest cost).
    pub fn slow_only(&self) -> &CurveRow {
        self.rows
            .first()
            // mnemo-lint: allow(R001, "estimate() always emits the all-slow row before any prefix rows; an empty curve is unconstructible")
            .expect("curve always has the all-slow row")
    }

    /// The all-FastMem row (best performance, full cost).
    pub fn fast_only(&self) -> &CurveRow {
        // mnemo-lint: allow(R001, "estimate() always emits the all-fast row last; an empty curve is unconstructible")
        self.rows.last().expect("curve always has the all-fast row")
    }

    /// The row at a given FastMem capacity *ratio* (first row whose
    /// `fast_bytes` reaches `ratio * total_bytes`).
    pub fn row_at_ratio(&self, ratio: f64) -> &CurveRow {
        assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} out of [0,1]");
        let target = (self.total_bytes as f64 * ratio) as u64;
        self.rows
            .iter()
            .find(|r| r.fast_bytes >= target)
            .unwrap_or_else(|| self.fast_only())
    }

    /// Serialise to the paper's three-column CSV: the bytes of
    /// [`Self::to_csv`].
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.to_csv().as_bytes())
    }

    /// The paper's three-column CSV: key id, estimated performance
    /// (ops/s, three decimals), cost reduction factor (six decimals). The
    /// initial all-slow row uses the sentinel `-` key. Rows are encoded
    /// by [`mnemo_codec::decimal`] (the bytes of `{:.3}` and `{:.6}`)
    /// into one pre-sized `String`.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(CSV_HEADER.len() + 1 + self.rows.len() * CSV_ROW_BYTES);
        out.push_str(CSV_HEADER);
        out.push('\n');
        for row in &self.rows {
            match row.key {
                Some(k) => push_u64(&mut out, k),
                None => out.push('-'),
            }
            out.push(',');
            push_fixed(&mut out, row.est_throughput_ops_s, 3);
            out.push(',');
            push_fixed(&mut out, row.cost_reduction, 6);
            out.push('\n');
        }
        out
    }

    /// Downsample the curve to at most `n` evenly spaced rows (always
    /// keeping both endpoints) — for plotting and comparison against a
    /// handful of measured points.
    pub fn thin(&self, n: usize) -> Vec<CurveRow> {
        assert!(n >= 2, "need at least the two endpoints");
        if self.rows.len() <= n {
            return self.rows.clone();
        }
        let last = self.rows.len() - 1;
        (0..n).map(|i| self.rows[i * last / (n - 1)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> EstimateCurve {
        // Synthetic monotone curve: throughput rises, cost rises.
        let rows = (0..=10usize)
            .map(|i| CurveRow {
                prefix: i,
                key: if i == 0 { None } else { Some(i as u64 - 1) },
                fast_bytes: (i * 100) as u64,
                cost_reduction: 0.2 + 0.08 * i as f64,
                est_runtime_ns: 2e9 - 1e8 * i as f64,
                est_throughput_ops_s: 1000.0 + 100.0 * i as f64,
            })
            .collect();
        EstimateCurve {
            rows,
            requests: 1000,
            total_bytes: 1000,
        }
    }

    #[test]
    fn endpoints() {
        let c = curve();
        assert_eq!(c.slow_only().prefix, 0);
        assert_eq!(c.fast_only().prefix, 10);
        assert!((c.fast_only().cost_reduction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sweet_spot_is_cheapest_row_meeting_target() {
        let c = crate::advisor::Consultation::over(curve());
        let prefix = |s| c.recommend(s).unwrap().prefix;
        // Fast-only throughput 2000; 10% slowdown target = 1800 -> first
        // row with throughput >= 1800 is prefix 8.
        assert_eq!(prefix(0.10), 8);
        // Zero slowdown forces the all-fast row.
        assert_eq!(prefix(0.0), 10);
        // Full slack allows the all-slow row.
        assert_eq!(prefix(1.0), 0);
    }

    #[test]
    fn row_at_ratio_finds_capacity_points() {
        let c = curve();
        assert_eq!(c.row_at_ratio(0.0).prefix, 0);
        assert_eq!(c.row_at_ratio(0.45).prefix, 5);
        assert_eq!(c.row_at_ratio(1.0).prefix, 10);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let c = curve();
        let csv = c.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 12, "header + 11 rows");
        assert_eq!(lines[0], "key,estimated_throughput_ops_s,cost_reduction");
        assert!(lines[1].starts_with("-,"), "all-slow sentinel row");
        assert!(lines[2].starts_with("0,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 3);
        }
    }

    /// The row encoder `to_csv` replaced: `std::fmt` at `{:.3}` and
    /// `{:.6}`, kept as the oracle for the curve's bytes.
    fn reference_csv(curve: &EstimateCurve) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{CSV_HEADER}\n");
        for row in &curve.rows {
            match row.key {
                Some(k) => write!(out, "{k},").unwrap(),
                None => out.push_str("-,"),
            }
            writeln!(
                out,
                "{:.3},{:.6}",
                row.est_throughput_ops_s, row.cost_reduction
            )
            .unwrap();
        }
        out
    }

    /// `to_csv`, `write_csv` and the reference encoder agree.
    fn assert_csv_bytes(c: &EstimateCurve, cell: &str) {
        let csv = c.to_csv();
        assert_eq!(csv, reference_csv(c), "{cell}");
        let mut bytes = Vec::new();
        c.write_csv(&mut bytes).unwrap();
        assert_eq!(csv.as_bytes(), bytes.as_slice(), "{cell}");
    }

    #[test]
    fn to_csv_equals_the_write_csv_bytes() {
        let mut c = curve();
        // Wide values too: long keys and throughputs overflow the
        // per-row reservation, which must only cost a reallocation.
        c.rows[3].key = Some(u64::MAX);
        c.rows[4].est_throughput_ops_s = 1.0e300;
        c.rows[5].cost_reduction = -0.0;
        assert_csv_bytes(&c, "synthetic edge rows");
        let empty = EstimateCurve {
            rows: Vec::new(),
            ..c
        };
        assert_csv_bytes(&empty, "empty curve");
    }

    #[test]
    fn to_csv_matches_the_reference_on_table3_consultations() {
        use crate::advisor::{Advisor, AdvisorConfig};
        use hybridmem::clock::NoiseConfig;
        use kvsim::StoreKind;
        use ycsb::WorkloadSpec;
        let advisor = Advisor::new(AdvisorConfig {
            noise: NoiseConfig::default_jitter(7),
            ..AdvisorConfig::default()
        });
        for spec in WorkloadSpec::table3() {
            let trace = spec.scaled(400, 4_000).generate(3);
            for store in [StoreKind::Redis, StoreKind::Dynamo, StoreKind::Memcached] {
                let curve = advisor.consult(store, &trace).unwrap().curve;
                assert_csv_bytes(&curve, &format!("{} on {store:?}", trace.name));
            }
        }
    }

    #[test]
    fn thin_keeps_endpoints() {
        let c = curve();
        let t = c.thin(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].prefix, 0);
        assert_eq!(t[2].prefix, 10);
        // Thinning a short curve is identity.
        assert_eq!(c.thin(100).len(), 11);
    }

    #[test]
    fn avg_latency() {
        let c = curve();
        let r = c.slow_only();
        assert!((r.est_avg_latency_ns(1000) - 2e6).abs() < 1e-6);
        assert_eq!(r.est_avg_latency_ns(0), 0.0);
    }
}
