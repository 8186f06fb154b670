//! The metric catalogue and the result line the benchmark prints.
//!
//! End-to-end metrics come from untraced runs and are defined on every
//! workload; per-layer metrics come from traced runs and are emitted on
//! every workload too, reading 0 where a workload bypasses the layer.

use crate::stats;
use crate::trace::{Span, Tracer};
use mnemo_bench::perf::json::escape;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What an untraced run measured. Workloads fill one with times adjusted
/// for the host's speed and steal (see `calib`), which gives the metrics,
/// and one in raw wall time, which is printed beside them.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// One sample per set-up (a pass's trace generation, or a daemon
    /// spawn until it announces it is serving).
    pub setup_s: Vec<f64>,
    /// One sample per operation (a consultation, or a window round trip).
    pub op_ms: Vec<f64>,
    /// Work completed per second, one sample per block of operations (a
    /// pass of consultations, or an episode of windows); the median
    /// resists bursts of interference that a whole-run mean would absorb.
    pub work_per_s: Vec<f64>,
    /// Peak resident set of the measured process, in KiB, read after a
    /// fixed amount of work (the warm-up pass, or the first episode), so
    /// a faster build that gets more done within the run is not charged
    /// for it.
    pub peak_rss_kib: u64,
}

impl EndToEnd {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        Ok(vec![
            metric("setup_s", stats::median(&self.setup_s), "s"),
            metric("op_p50_ms", stats::median(&self.op_ms), "ms"),
            metric("op_p90_ms", stats::tail(&self.op_ms, 0.90)?, "ms"),
            metric("work_per_s", stats::median(&self.work_per_s), "1/s"),
            metric("peak_rss_mib", self.peak_rss_kib as f64 / 1024.0, "MiB"),
        ])
    }

    /// The timed metrics on one `raw ...` line, for raw wall times.
    pub fn summary(&self) -> Result<String, String> {
        let mut line = "raw".to_string();
        for m in self.metrics()?.iter().filter(|m| m.name != "peak_rss_mib") {
            let _ = write!(line, " {} {}", m.name, m.value);
        }
        Ok(line)
    }
}

/// Per-layer quantities a traced run measures besides its spans. Fields
/// of the other workload family stay 0.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Wall time the spans were recorded over, in seconds.
    pub wall_s: f64,
    /// Traced over untraced busy time of the same work, minus 1.
    pub overhead_frac: f64,
    /// Simulated KV requests the baselines replayed.
    pub sim_requests: u64,
    /// Keys the Pattern Engine analysed.
    pub keys: u64,
    /// Estimate-curve rows built.
    pub curve_rows: u64,
    /// Median |estimated - measured| throughput at the recommended split,
    /// in percent of measured (sim domain, first pass).
    pub verify_err_p50_pct: f64,
    /// Share of recommendations whose measured slowdown meets the SLO
    /// (sim domain, first pass).
    pub verify_slo_met_frac: f64,
    /// Journal bytes on disk per ingested event.
    pub journal_bytes_per_event: f64,
    /// Heap allocations per ingested event (untraced replay).
    pub allocs_per_event: f64,
    /// Share of re-plan rows whose grant changed from the tenant's last.
    pub replan_changed_frac: f64,
    /// Daemon restart on an episode's journal until it serves: the
    /// journal replay.
    pub recover_s: f64,
    /// Daemon start on an empty journal until it serves, median.
    pub start_s: f64,
    /// Window round-trip p99 over the socket, in ms.
    pub ack_p99_ms: f64,
    /// Advise round-trip median over the socket, in ms.
    pub advise_rtt_p50_ms: f64,
    /// Advise round-trip p90 over the socket, in ms.
    pub advise_rtt_p90_ms: f64,
    /// Every run of the full reference kernel, in seconds of CPU time.
    pub ref_kernel_s: Vec<f64>,
}

/// The per-layer metrics, in `BENCHMARK.json` order: five per layer
/// span (four for set-up, which has no tail), then the counts.
pub fn layer_metrics(t: &Tracer, l: &Layers) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for span in Span::ALL.into_iter().filter(|s| !s.is_parent()) {
        let agg = t.agg(span);
        let samples: Vec<f64> = agg.samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let name = span.name();
        out.push(metric(
            format!("{name}.total_s"),
            agg.total_ns as f64 / 1e9,
            "s",
        ));
        out.push(metric(format!("{name}.calls"), agg.calls as f64, "count"));
        out.push(metric(
            format!("{name}.p50_us"),
            stats::median(&samples),
            "us",
        ));
        if let Some((label, q)) = span.tail() {
            let value = if samples.is_empty() {
                0.0
            } else {
                stats::tail(&samples, q).map_err(|e| format!("{name}: {e}"))?
            };
            out.push(metric(format!("{name}.{label}_us"), value, "us"));
        }
        out.push(metric(format!("{name}.allocs"), agg.allocs as f64, "count"));
    }
    let baseline_ns = t.agg(Span::KvsimBaseline).total_ns as f64;
    let per_req = |n: u64| if n == 0 { 0.0 } else { baseline_ns / n as f64 };
    let parents_self_ns: u64 = [Span::Consult, Span::ServeWindow]
        .iter()
        .map(|&s| t.agg(s).self_ns())
        .sum();
    let share = |x: f64| if l.wall_s > 0.0 { x / l.wall_s } else { 0.0 };
    out.extend([
        metric("kvsim.sim_requests", l.sim_requests as f64, "count"),
        metric("kvsim.host_ns_per_req", per_req(l.sim_requests), "ns"),
        metric("kvsim.verify.err_p50_pct", l.verify_err_p50_pct, "%"),
        metric("kvsim.verify.slo_met_frac", l.verify_slo_met_frac, "frac"),
        metric("core.keys", l.keys as f64, "count"),
        metric("core.curve_rows", l.curve_rows as f64, "count"),
        metric(
            "serve.journal_bytes_per_event",
            l.journal_bytes_per_event,
            "B/event",
        ),
        metric("serve.allocs_per_event", l.allocs_per_event, "1/event"),
        metric("serve.replan_changed_frac", l.replan_changed_frac, "frac"),
        metric("serve.recover_s", l.recover_s, "s"),
        metric("serve.start_s", l.start_s, "s"),
        metric("serve.ack_p99_ms", l.ack_p99_ms, "ms"),
        metric("serve.advise_rtt_p50_ms", l.advise_rtt_p50_ms, "ms"),
        metric("serve.advise_rtt_p90_ms", l.advise_rtt_p90_ms, "ms"),
        metric("trace.coverage_frac", share(t.self_sum_s()), "frac"),
        metric(
            "trace.unattributed_frac",
            share(parents_self_ns as f64 / 1e9),
            "frac",
        ),
        metric("trace.overhead_frac", l.overhead_frac, "frac"),
        metric(
            "host.ref_kernel_p50_us",
            stats::median(&l.ref_kernel_s) * 1e6,
            "us",
        ),
    ]);
    Ok(out)
}

/// Print every metric as `name value unit`, then the result object as
/// the last line of standard output.
pub fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<(), String> {
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        println!("{} {} {}", m.name, m.value, m.unit);
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            escape(&m.name),
            m.value,
            escape(m.unit)
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}",
        failed == 0
    );
    Ok(())
}
