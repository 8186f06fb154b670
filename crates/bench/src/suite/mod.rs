//! Library form of the paper-figure bench suite.
//!
//! Each submodule but `components` is the body of the matching
//! `src/bin/` harness, callable in-process so `mnemo perf` can run the
//! whole suite in one binary and charge wall clock, allocations, and
//! deterministic counters per bench; `components` writes no artifact
//! and runs only under `mnemo perf`. The bins stay as thin wrappers, so
//! `cargo run --release --bin fig5` and `mnemo perf` execute the exact
//! same code and write the exact same artifacts (the golden-figure CI
//! gates hold for both entry points).
//!
//! Every `run` takes its scale divisor explicitly instead of reading
//! `MNEMO_SCALE` itself — the perf harness pins the scale per suite and
//! must not mutate process environment mid-run.

pub mod components;
pub mod fig1;
pub mod fig5;
pub mod serve_throughput;
pub mod table1;
pub mod tier_matrix;
pub mod ycsb_core;

use crate::perf::fnv64;

/// What one bench reports back to the perf harness.
#[derive(Debug, Clone, Default)]
pub struct SuiteOutcome {
    /// Work items driven (requests for trace benches, rows for
    /// catalogue benches) — the denominator for ops/s.
    pub items: u64,
    /// Deterministic sim-domain counters, sorted by name. These are
    /// exact-compared by the CI perf gate: totals, output-row counts,
    /// and FNV-1a checksums of the CSV artifacts.
    pub counters: Vec<(String, u64)>,
    /// Per-stage wall samples from the bench's own `SweepTimer`
    /// (empty for single-stage benches).
    pub stages: Vec<mnemo_par::StageSample>,
}

impl SuiteOutcome {
    /// Record a deterministic counter, keeping the list name-sorted.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

/// FNV-1a checksum of a CSV artifact exactly as [`crate::write_csv`]
/// lays it out: header line, then one line per row, `\n`-terminated.
pub fn csv_fnv(header: &str, rows: &[String]) -> u64 {
    let mut text =
        String::with_capacity(header.len() + 1 + rows.iter().map(|r| r.len() + 1).sum::<usize>());
    text.push_str(header);
    text.push('\n');
    for row in rows {
        text.push_str(row);
        text.push('\n');
    }
    fnv64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_fnv_matches_file_layout() {
        let rows = vec!["a,1".to_string(), "b,2".to_string()];
        assert_eq!(csv_fnv("k,v", &rows), fnv64(b"k,v\na,1\nb,2\n"));
    }

    #[test]
    fn counters_stay_sorted() {
        let mut o = SuiteOutcome::default();
        o.counter("zeta", 1);
        o.counter("alpha", 2);
        assert_eq!(o.counters[0].0, "alpha");
    }
}
