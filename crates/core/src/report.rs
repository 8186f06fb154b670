//! Human-readable consultation reports.
//!
//! Renders a [`Consultation`] as a self-contained Markdown document: the
//! measured baselines, the cost/performance frontier, a text sparkline of
//! the estimate curve, and the recommendation for a given SLO. Used by
//! `mnemo consult --report` and handy for attaching to capacity-planning
//! tickets.

use crate::advisor::Consultation;
use std::fmt::Write as _;

/// Unicode block characters for the curve sparkline, low to high.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a throughput sparkline of the estimate curve (`width` buckets
/// across the FastMem-ratio axis).
pub fn sparkline(consultation: &Consultation, width: usize) -> String {
    assert!(width >= 2, "sparkline needs at least two columns");
    let rows = consultation.curve.thin(width);
    let lo = rows
        .iter()
        .map(|r| r.est_throughput_ops_s)
        .fold(f64::INFINITY, f64::min);
    let hi = rows
        .iter()
        .map(|r| r.est_throughput_ops_s)
        .fold(0.0, f64::max);
    rows.iter()
        .map(|r| {
            if hi <= lo {
                SPARKS[0]
            } else {
                let t = (r.est_throughput_ops_s - lo) / (hi - lo);
                SPARKS[((t * (SPARKS.len() - 1) as f64).round() as usize).min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

/// Render the full Markdown report.
pub fn markdown(consultation: &Consultation, slo_slowdown: f64) -> String {
    let mut out = String::new();
    let b = &consultation.baselines;
    let curve = &consultation.curve;
    let _ = writeln!(out, "# Mnemo consultation: {}\n", b.workload);
    let _ = writeln!(
        out,
        "Store: **{}** — {} keys, {} requests, {:.1} MB dataset.\n",
        b.store,
        consultation.pattern.key_count(),
        curve.requests,
        curve.total_bytes as f64 / 1e6
    );

    let _ = writeln!(out, "## Measured baselines\n");
    let _ = writeln!(
        out,
        "| configuration | runtime | throughput | avg read | avg write |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    for (tier, run) in [("FastMem", &b.fast), ("SlowMem", &b.slow)] {
        let _ = writeln!(
            out,
            "| all data in {tier} | {:.2} s | {:.0} ops/s | {:.1} µs | {:.1} µs |",
            run.runtime_ns / 1e9,
            run.throughput_ops_s(),
            run.avg_read_ns / 1e3,
            run.avg_write_ns / 1e3
        );
    }
    let _ = writeln!(
        out,
        "\nHybrid-memory sensitivity: FastMem-only is **{:+.1}%** faster than SlowMem-only.\n",
        b.sensitivity() * 100.0
    );

    let _ = writeln!(out, "## Estimate curve\n");
    let _ = writeln!(
        out,
        "Throughput vs FastMem share (SlowMem-only → FastMem-only):\n"
    );
    let _ = writeln!(out, "```\n{}\n```\n", sparkline(consultation, 40));

    let _ = writeln!(out, "## Cost/performance frontier\n");
    let _ = writeln!(
        out,
        "| slowdown budget | FastMem share | memory cost (×FastMem-only) |"
    );
    let _ = writeln!(out, "|---|---|---|");
    for rec in consultation.frontier(&[0.02, 0.05, slo_slowdown, 0.25]) {
        let _ = writeln!(
            out,
            "| {:.0}% | {:.1}% | {:.2}× |",
            rec.est_slowdown.max(0.0) * 100.0,
            rec.fast_ratio * 100.0,
            rec.cost_reduction
        );
    }

    if let Some(rec) = consultation.recommend(slo_slowdown) {
        let _ = writeln!(
            out,
            "\n## Recommendation (≤{:.0}% slowdown)\n",
            slo_slowdown * 100.0
        );
        let _ = writeln!(
            out,
            "Place the **{} hottest keys** ({:.1}% of dataset bytes) in FastMem.",
            rec.prefix,
            rec.fast_ratio * 100.0
        );
        let _ = writeln!(
            out,
            "Memory bill: **{:.0}%** of the all-DRAM configuration; estimated \
             throughput {:.0} ops/s ({:.1}% below FastMem-only).",
            rec.cost_reduction * 100.0,
            rec.est_throughput_ops_s,
            rec.est_slowdown * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{Advisor, AdvisorConfig};
    use kvsim::StoreKind;
    use ycsb::WorkloadSpec;

    fn consultation() -> Consultation {
        let trace = WorkloadSpec::trending().scaled(120, 1_200).generate(3);
        Advisor::new(AdvisorConfig::default())
            .consult(StoreKind::Redis, &trace)
            .unwrap()
    }

    #[test]
    fn report_contains_all_sections() {
        let md = markdown(&consultation(), 0.10);
        for needle in [
            "# Mnemo consultation",
            "## Measured baselines",
            "## Estimate curve",
            "## Cost/performance frontier",
            "## Recommendation",
            "FastMem-only",
            "all data in FastMem",
            "all data in SlowMem",
            "ops/s",
        ] {
            assert!(md.contains(needle), "missing '{needle}' in:\n{md}");
        }
    }

    #[test]
    fn sparkline_rises_left_to_right() {
        let c = consultation();
        let s = sparkline(&c, 20);
        assert_eq!(s.chars().count(), 20);
        let first = s.chars().next().unwrap();
        let last = s.chars().last().unwrap();
        let rank = |ch| SPARKS.iter().position(|&x| x == ch).unwrap();
        assert!(rank(last) > rank(first), "curve should rise: {s}");
    }

    #[test]
    #[should_panic(expected = "two columns")]
    fn sparkline_rejects_width_one() {
        let _ = sparkline(&consultation(), 1);
    }
}
