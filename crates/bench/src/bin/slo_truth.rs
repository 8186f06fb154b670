//! Fig. 8a at the SLO point: the estimate curve against the exact truth.
//!
//! For every Table III workload and store, the baselines are measured
//! once (with the harness's 2% jitter) and their cost ledger gives the
//! exact noise-free runtime of every prefix of the MnemoT order. Three
//! estimate models are then judged against it: the paper's
//! `GlobalAverage`, the affine `SizeAware` refinement and the
//! cache-aware correction. Each is judged at the row its 10%-SLO
//! recommendation picks and over its whole curve, in percent of the true
//! throughput (positive: the estimate promises more than the split
//! delivers).

use kvsim::StoreKind;
use mnemo::accuracy::ErrorStats;
use mnemo::advisor::{Advisor, AdvisorConfig, OrderingKind};
use mnemo::{ModelKind, SensitivityEngine};
use mnemo_bench::{
    measurement_noise, paper_workloads, print_table, seed_for, stores, testbed_for, write_csv,
    HarnessError,
};

const SLO_SLOWDOWN: f64 = 0.10;

/// The model variants, in presentation order.
const MODELS: [&str; 3] = ["global-average", "size-aware", "cache-aware"];

fn config_for(model: &str, trace: &ycsb::Trace) -> AdvisorConfig {
    let config = AdvisorConfig {
        spec: testbed_for(trace),
        noise: measurement_noise(7),
        price_factor: 0.2,
        model: if model == "size-aware" {
            ModelKind::SizeAware
        } else {
            ModelKind::GlobalAverage
        },
        ordering: OrderingKind::MnemoT,
        cache_correction: None,
        fault_plan: None,
    };
    if model == "cache-aware" {
        config.cache_aware()
    } else {
        config
    }
}

/// One model's verdict on one cell.
struct Verdict {
    fast_ratio: f64,
    est_slowdown: f64,
    true_slowdown: f64,
    /// Signed throughput error at the SLO row.
    slo_err_pct: f64,
    /// Signed throughput errors at every curve row.
    curve_errs: Vec<f64>,
}

fn judge(store: StoreKind, trace: &ycsb::Trace) -> Result<Vec<Verdict>, HarnessError> {
    let config = config_for(MODELS[0], trace);
    let baselines = SensitivityEngine::new(config.spec.clone(), config.noise)
        .measure(store, trace)
        .map_err(|e| format!("baselines failed: {e}"))?;
    let ops = trace.len() as f64;
    let throughput = |runtime_ns: f64| ops / (runtime_ns / 1e9);
    let mut verdicts = Vec::new();
    for model in MODELS {
        let c =
            Advisor::new(config_for(model, trace)).consult_with_baselines(baselines.clone(), trace);
        let truth = c
            .baselines
            .truth_curve(&c.order)
            .ok_or("the baseline walk declined: no ledger")?;
        let err = |row: usize| {
            let exact = throughput(truth[row]);
            (c.curve.rows[row].est_throughput_ops_s - exact) / exact * 100.0
        };
        let rec = c
            .recommend(SLO_SLOWDOWN)
            .ok_or("recommendation on an empty curve")?;
        let exact_fast = throughput(truth[truth.len() - 1]);
        verdicts.push(Verdict {
            fast_ratio: rec.fast_ratio,
            est_slowdown: rec.est_slowdown,
            true_slowdown: 1.0 - throughput(truth[rec.prefix]) / exact_fast,
            slo_err_pct: err(rec.prefix),
            curve_errs: (0..truth.len()).map(err).collect(),
        });
    }
    Ok(verdicts)
}

fn main() -> Result<(), HarnessError> {
    mnemo_bench::harness_args()?;
    println!("Estimate error against the exact ledger truth at the 10%-SLO row");
    let workloads = paper_workloads();
    let cells: Vec<(usize, StoreKind)> = (0..workloads.len())
        .flat_map(|w| stores().into_iter().map(move |s| (w, s)))
        .collect();
    let results = mnemo_bench::parallel(cells.len(), |i| {
        let (w, store) = cells[i];
        let spec = &workloads[w];
        judge(store, &spec.generate(seed_for(&spec.name)))
    });
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut slo_errs = vec![Vec::new(); MODELS.len()];
    let mut curve_errs = vec![Vec::new(); MODELS.len()];
    let mut misses = [0usize; MODELS.len()];
    for ((w, store), verdicts) in cells.iter().zip(results) {
        let name = &workloads[*w].name;
        let mut row = vec![name.clone(), store.to_string()];
        for (m, v) in verdicts?.into_iter().enumerate() {
            row.push(format!(
                "{:+.2}% ({:.1}%)",
                v.slo_err_pct,
                v.true_slowdown * 100.0
            ));
            csv.push(format!(
                "{name},{store},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                MODELS[m],
                v.fast_ratio,
                v.est_slowdown,
                v.true_slowdown,
                v.slo_err_pct,
                ErrorStats::from_errors(&v.curve_errs).median
            ));
            slo_errs[m].push(v.slo_err_pct);
            curve_errs[m].extend(v.curve_errs);
            misses[m] += usize::from(v.true_slowdown > SLO_SLOWDOWN);
        }
        rows.push(row);
    }
    print_table(
        "throughput error at the SLO row (true slowdown there)",
        &["workload", "store", MODELS[0], MODELS[1], MODELS[2]],
        &rows,
    );
    let summary: Vec<Vec<String>> = MODELS
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let at_slo = ErrorStats::from_errors(&slo_errs[m]);
            let curve = ErrorStats::from_errors(&curve_errs[m]);
            vec![
                model.to_string(),
                format!("{:.3}%", curve.median),
                format!("{:.3}%", at_slo.median),
                format!("{:.2}%", at_slo.max),
                format!("{}/{}", misses[m], slo_errs[m].len()),
            ]
        })
        .collect();
    print_table(
        "summary",
        &[
            "model",
            "median |err| all rows",
            "median |err| SLO row",
            "max |err| SLO row",
            "true SLO misses",
        ],
        &summary,
    );
    write_csv(
        "slo_truth.csv",
        "workload,store,model,fast_ratio,est_slowdown,true_slowdown,slo_err_pct,curve_median_abs_err_pct",
        &csv,
    )?;
    Ok(())
}
