//! Fig. 1 — percentage of the cost of memory in select Memory Optimized
//! VMs across major cloud providers.
//!
//! Methodology (§I / Amur et al.): model every instance price as
//! `vCPU*C + GB*M`, least-squares over the provider's catalogue, then
//! report `GB*M / price` for each memory-optimized instance.

use super::SuiteOutcome;
use crate::{print_table, write_csv, HarnessError};
use cloudcost::regression::{memory_share_series, CostSplit};
use cloudcost::{Provider, ProviderKind};

const CSV_HEADER: &str = "provider,instance,memory_share";

/// Fit every provider catalogue and emit `fig1_memory_share.csv` plus
/// the fig1 telemetry export. Scale-independent (fixed price catalogue).
pub fn run() -> Result<SuiteOutcome, HarnessError> {
    println!("Fig. 1: memory share of VM cost (Nov-2018 on-demand prices)");
    let mut csv_rows = Vec::new();
    // The figure's inputs are a fixed price catalogue, so everything
    // recorded here is scale- and jobs-independent: the export is the
    // byte-stable golden the golden-figure gate diffs.
    let mut tel = mnemo_telemetry::Recorder::new();
    let mut providers = 0u64;
    for kind in ProviderKind::ALL {
        let slug = match kind {
            ProviderKind::Aws => "aws",
            ProviderKind::Gcp => "gcp",
            ProviderKind::Azure => "azure",
        };
        let provider = Provider::new(kind);
        let split = CostSplit::fit(&provider.instances)
            .map_err(|e| format!("catalogue fit failed: {e}"))?;
        providers += 1;
        tel.count("fig1.providers", 1);
        tel.count("fig1.catalogue_instances", provider.instances.len() as u64);
        tel.gauge(
            &format!("fig1.{slug}.fit_rms_error"),
            split.rms_relative_error,
        );
        let rows: Vec<Vec<String>> = memory_share_series(&provider.instances)
            .map_err(|e| format!("memory-share series failed: {e}"))?
            .iter()
            .map(|r| {
                csv_rows.push(format!("{},{},{:.4}", kind.name(), r.instance, r.share));
                tel.count("fig1.instances", 1);
                tel.gauge("fig1.memory_share", r.share);
                tel.gauge(&format!("fig1.{slug}.memory_share"), r.share);
                vec![r.instance.to_string(), format!("{:5.1}%", r.share * 100.0)]
            })
            .collect();
        print_table(
            &format!(
                "{} (C=${:.4}/vCPU/h, M=${:.5}/GB/h, rms {:.1}%)",
                kind.name(),
                split.per_vcpu,
                split.per_gb,
                split.rms_relative_error * 100.0
            ),
            &["instance", "memory share"],
            &rows,
        );
    }
    write_csv("fig1_memory_share.csv", CSV_HEADER, &csv_rows)?;
    crate::export_telemetry("fig1", &[tel.take_snapshot(0)])?;
    println!("\nPaper band: memory is ~60-85% of the VM cost for these instances.");

    let mut outcome = SuiteOutcome {
        items: csv_rows.len() as u64,
        ..SuiteOutcome::default()
    };
    outcome.counter("providers", providers);
    outcome.counter("instances", csv_rows.len() as u64);
    outcome.counter("csv_fnv", super::csv_fnv(CSV_HEADER, &csv_rows));
    Ok(outcome)
}
