//! Table I — testbed bandwidth and latency values for DRAM (FastMem)
//! and emulated NVM (SlowMem).

use super::SuiteOutcome;
use crate::{print_table, write_csv, HarnessError};
use hybridmem::{StackSpec, TierSpec};

const CSV_HEADER: &str = "tier,bandwidth_factor,latency_factor,read_latency_ns,bandwidth_gb_s";

/// The bandwidth (`B`) and latency (`L`) factors of SlowMem relative
/// to FastMem, as Table I reports them.
fn slow_factors(fast: &TierSpec, slow: &TierSpec) -> (f64, f64) {
    (
        slow.bandwidth_bytes_per_ns / fast.bandwidth_bytes_per_ns,
        slow.read_latency_ns / fast.read_latency_ns,
    )
}

/// Print Table I and emit `table1_testbed.csv`. Scale-independent.
pub fn run() -> Result<SuiteOutcome, HarnessError> {
    let spec = StackSpec::paper_testbed();
    let (fast, slow) = (&spec.tiers[0].spec, &spec.tiers[1].spec);
    let (b, l) = slow_factors(fast, slow);
    print_table(
        "Table I: testbed bandwidth and latency",
        &["", "FastMem", "SlowMem"],
        &[
            vec![
                "Factor".into(),
                "B:1 L:1".into(),
                format!("B:{b:.2} L:{l:.2}"),
            ],
            vec![
                "Latency (ns)".into(),
                format!("{:.1}", fast.read_latency_ns),
                format!("{:.1}", slow.read_latency_ns),
            ],
            vec![
                "BW (GB/s)".into(),
                format!("{:.1}", fast.bandwidth_bytes_per_ns),
                format!("{:.2}", slow.bandwidth_bytes_per_ns),
            ],
        ],
    );
    let csv_rows = [
        format!(
            "fastmem,1.00,1.00,{:.1},{:.2}",
            fast.read_latency_ns, fast.bandwidth_bytes_per_ns
        ),
        format!(
            "slowmem,{b:.2},{l:.2},{:.1},{:.2}",
            slow.read_latency_ns, slow.bandwidth_bytes_per_ns
        ),
    ];
    write_csv("table1_testbed.csv", CSV_HEADER, &csv_rows)?;
    println!(
        "\nLLC: {} MB ({} model), line {} B, {}-way",
        spec.cache.capacity_bytes >> 20,
        match spec.cache.kind {
            hybridmem::CacheKind::None => "disabled",
            hybridmem::CacheKind::ObjectLru => "object-LRU",
            hybridmem::CacheKind::SetAssociative => "set-associative",
        },
        spec.cache.line_bytes,
        spec.cache.ways
    );

    let mut outcome = SuiteOutcome {
        items: csv_rows.len() as u64,
        ..SuiteOutcome::default()
    };
    outcome.counter("rows", csv_rows.len() as u64);
    outcome.counter("csv_fnv", super::csv_fnv(CSV_HEADER, &csv_rows));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_factors() {
        let (b, l) = slow_factors(&TierSpec::paper_fastmem(), &TierSpec::paper_slowmem());
        assert!((b - 0.12).abs() < 0.005, "bandwidth factor {b}");
        assert!((l - 3.62).abs() < 0.005, "latency factor {l}");
    }
}
