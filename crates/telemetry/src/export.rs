//! Row-oriented exporters: JSONL and long-format CSV, plus the legacy
//! `timing-*` stage formats that `par::SweepTimer` historically emitted
//! (kept byte-compatible so the CI bench-smoke exclusion list and any
//! downstream parsers keep working unchanged).
//!
//! Every gated artifact is rendered with [`DomainFilter::SimOnly`]:
//! sim-domain values are deterministic functions of the trace and seed,
//! so their rendered bytes are identical for every `--jobs` value.
//! Wall-domain values only ever appear in artifacts whose names carry
//! the `timing-` prefix, which CI excludes from byte diffs.

use crate::recorder::{MetricHistogram, SpanRecord, TimeDomain};
use crate::snapshot::{Snapshot, SCHEMA_VERSION};
use mnemo_codec::json::escape;
use std::fs;
use std::io;
use std::path::Path;

/// Which time domains an exporter should include.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainFilter {
    /// Everything, wall-clock included (diagnostic artifacts only).
    All,
    /// Sim-domain metrics only — the deterministic, CI-gated subset.
    /// Counters are logical counts and always pass.
    SimOnly,
}

impl DomainFilter {
    /// Whether a metric in `domain` passes this filter.
    pub fn keep(&self, domain: TimeDomain) -> bool {
        match self {
            DomainFilter::All => true,
            DomainFilter::SimOnly => domain == TimeDomain::Sim,
        }
    }
}

/// Quantiles exported for every histogram, with their column names.
pub const HIST_QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)];

/// Canonical float rendering: Rust's shortest-roundtrip `Display`, which
/// maps equal bit patterns to equal strings — all the determinism gate
/// needs, with no precision loss.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // Non-finite values are JSON-hostile; render as null.
        "null".to_string()
    }
}

/// Render snapshots as JSON Lines: one object per epoch, with the
/// schema version embedded in every line.
pub fn to_jsonl(snapshots: &[Snapshot], filter: DomainFilter) -> String {
    let mut out = String::new();
    for snap in snapshots {
        let mut line = format!(
            "{{\"schema\":{SCHEMA_VERSION},\"epoch\":{},\"counters\":{{",
            snap.epoch()
        );
        let counters: Vec<String> = snap
            .counters()
            .map(|(name, v)| format!("\"{}\":{v}", escape(name)))
            .collect();
        line.push_str(&counters.join(","));
        line.push_str("},\"gauges\":{");
        let gauges: Vec<String> = snap
            .gauges()
            .filter(|(_, d, _)| filter.keep(*d))
            .map(|(name, d, g)| {
                format!(
                    "\"{}\":{{\"domain\":\"{}\",\"sum\":{},\"count\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
                    escape(name),
                    d.name(),
                    fmt_f64(g.sum),
                    g.count,
                    fmt_f64(g.min),
                    fmt_f64(g.max),
                    fmt_f64(g.mean()),
                )
            })
            .collect();
        line.push_str(&gauges.join(","));
        line.push_str("},\"histograms\":{");
        let hists: Vec<String> = snap
            .histograms()
            .filter(|(_, d, _)| filter.keep(*d))
            .map(|(name, d, h)| {
                let quantiles: Vec<String> = HIST_QUANTILES
                    .iter()
                    .map(|(label, q)| format!("\"{label}\":{}", fmt_f64(h.quantile_value(*q))))
                    .collect();
                format!(
                    "\"{}\":{{\"domain\":\"{}\",\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"sum\":{},{}}}",
                    escape(name),
                    d.name(),
                    h.samples(),
                    fmt_f64(h.mean_value()),
                    fmt_f64(h.min_value()),
                    fmt_f64(h.max_value()),
                    fmt_f64(h.value_sum()),
                    quantiles.join(","),
                )
            })
            .collect();
        line.push_str(&hists.join(","));
        line.push_str("}}\n");
        out.push_str(&line);
    }
    out
}

/// Render snapshots as long-format CSV: one row per exported field, in
/// (epoch, kind, name, field) order.
pub fn to_csv(snapshots: &[Snapshot], filter: DomainFilter) -> String {
    let mut out = String::from("schema,epoch,kind,name,domain,field,value\n");
    for snap in snapshots {
        let epoch = snap.epoch();
        for (name, v) in snap.counters() {
            out.push_str(&format!(
                "{SCHEMA_VERSION},{epoch},counter,{name},sim,value,{v}\n"
            ));
        }
        for (name, domain, g) in snap.gauges().filter(|(_, d, _)| filter.keep(*d)) {
            let d = domain.name();
            for (field, value) in [
                ("sum", fmt_f64(g.sum)),
                ("count", g.count.to_string()),
                ("min", fmt_f64(g.min)),
                ("max", fmt_f64(g.max)),
                ("mean", fmt_f64(g.mean())),
            ] {
                out.push_str(&format!(
                    "{SCHEMA_VERSION},{epoch},gauge,{name},{d},{field},{value}\n"
                ));
            }
        }
        for (name, domain, h) in snap.histograms().filter(|(_, d, _)| filter.keep(*d)) {
            let d = domain.name();
            let mut fields = vec![
                ("count".to_string(), h.samples().to_string()),
                ("mean".to_string(), fmt_f64(h.mean_value())),
                ("min".to_string(), fmt_f64(h.min_value())),
                ("max".to_string(), fmt_f64(h.max_value())),
                ("sum".to_string(), fmt_f64(h.value_sum())),
            ];
            for (label, q) in HIST_QUANTILES {
                fields.push((label.to_string(), fmt_f64(h.quantile_value(q))));
            }
            for (field, value) in fields {
                out.push_str(&format!(
                    "{SCHEMA_VERSION},{epoch},hist,{name},{d},{field},{value}\n"
                ));
            }
        }
    }
    out
}

/// The legacy per-stage timing CSV (`sweep,jobs,stage,items,wall_ms` +
/// a `total` row) — byte-compatible with the original
/// `SweepTimer::to_csv` so existing CI parsing and the `timing-*`
/// exclusion convention are untouched.
pub fn timing_csv(label: &str, jobs: usize, spans: &[SpanRecord], total_ms: f64) -> String {
    let mut out = String::from("sweep,jobs,stage,items,wall_ms\n");
    for s in spans {
        out.push_str(&format!(
            "{},{},{},{},{:.3}\n",
            label,
            jobs,
            s.name,
            s.items,
            s.duration_ns / 1e6
        ));
    }
    out.push_str(&format!(
        "{},{},total,{},{:.3}\n",
        label,
        jobs,
        spans.iter().map(|s| s.items).sum::<u64>(),
        total_ms
    ));
    out
}

/// The legacy timing JSON — byte-compatible with the original
/// `SweepTimer::to_json`.
pub fn timing_json(label: &str, jobs: usize, spans: &[SpanRecord], total_ms: f64) -> String {
    let stages: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"stage\":\"{}\",\"items\":{},\"wall_ms\":{:.3}}}",
                s.name,
                s.items,
                s.duration_ns / 1e6
            )
        })
        .collect();
    format!(
        "{{\"sweep\":\"{}\",\"jobs\":{},\"total_ms\":{:.3},\"stages\":[{}]}}",
        label,
        jobs,
        total_ms,
        stages.join(",")
    )
}

/// Write the standard telemetry artifact set under `dir`:
///
/// * `telemetry.jsonl` — sim-domain JSONL (deterministic, CI-gated);
/// * `telemetry.csv` — sim-domain long CSV (deterministic, CI-gated);
/// * `timing-telemetry.jsonl` — full JSONL including wall-domain
///   metrics (the `timing-` prefix keeps it out of byte diffs);
/// * plus the columnar layout via [`crate::columnar::write_columnar`].
pub fn write_dir(dir: &Path, snapshots: &[Snapshot]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(
        dir.join("telemetry.jsonl"),
        to_jsonl(snapshots, DomainFilter::SimOnly),
    )?;
    fs::write(
        dir.join("telemetry.csv"),
        to_csv(snapshots, DomainFilter::SimOnly),
    )?;
    fs::write(
        dir.join("timing-telemetry.jsonl"),
        to_jsonl(snapshots, DomainFilter::All),
    )?;
    crate::columnar::write_columnar(dir, snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn snap() -> Snapshot {
        let mut r = Recorder::new();
        r.count("reqs", 7);
        r.gauge("occupancy", 0.5);
        r.observe("lat_ns", 100.0);
        r.observe_wall("wall_ns", 5.0);
        r.snapshot(2)
    }

    #[test]
    fn jsonl_embeds_schema_and_epoch() {
        let line = to_jsonl(&[snap()], DomainFilter::All);
        assert!(line.starts_with("{\"schema\":1,\"epoch\":2,"));
        assert!(line.contains("\"reqs\":7"));
        assert!(line.contains("\"wall_ns\""));
        assert!(line.ends_with("}\n"));
    }

    #[test]
    fn sim_only_filter_drops_wall_metrics() {
        let line = to_jsonl(&[snap()], DomainFilter::SimOnly);
        assert!(line.contains("\"lat_ns\""));
        assert!(line.contains("\"occupancy\""));
        assert!(!line.contains("wall_ns"));
    }

    #[test]
    fn csv_is_long_format_with_schema_column() {
        let csv = to_csv(&[snap()], DomainFilter::SimOnly);
        assert!(csv.starts_with("schema,epoch,kind,name,domain,field,value\n"));
        assert!(csv.contains("1,2,counter,reqs,sim,value,7\n"));
        assert!(csv.contains("1,2,hist,lat_ns,sim,count,1\n"));
        assert!(!csv.contains("wall_ns"));
    }

    #[test]
    fn timing_formats_match_legacy_bytes() {
        let spans = vec![
            SpanRecord {
                name: "consult".into(),
                domain: TimeDomain::Wall,
                items: 3,
                duration_ns: 1_500_000.0,
            },
            SpanRecord {
                name: "write".into(),
                domain: TimeDomain::Wall,
                items: 1,
                duration_ns: 2_000_000.0,
            },
        ];
        let csv = timing_csv("fig-test", 2, &spans, 4.0);
        assert_eq!(
            csv,
            "sweep,jobs,stage,items,wall_ms\n\
             fig-test,2,consult,3,1.500\n\
             fig-test,2,write,1,2.000\n\
             fig-test,2,total,4,4.000\n"
        );
        let json = timing_json("fig-test", 2, &spans, 4.0);
        assert!(json.starts_with("{\"sweep\":\"fig-test\",\"jobs\":2,\"total_ms\":4.000,"));
        assert!(json.contains("{\"stage\":\"consult\",\"items\":3,\"wall_ms\":1.500}"));
    }

    #[test]
    fn floats_render_shortest_roundtrip() {
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn write_dir_produces_gated_and_excluded_files() {
        let dir = std::env::temp_dir().join(format!("mnemo-telemetry-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_dir(&dir, &[snap()]).unwrap();
        let jsonl = fs::read_to_string(dir.join("telemetry.jsonl")).unwrap();
        assert!(!jsonl.contains("wall_ns"));
        let full = fs::read_to_string(dir.join("timing-telemetry.jsonl")).unwrap();
        assert!(full.contains("wall_ns"));
        assert!(dir.join("schema.csv").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
