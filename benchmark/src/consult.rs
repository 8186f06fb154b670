//! The batch workloads: consultations run in-process, the paper's flow.
//!
//! Each pass generates one trace per workload spec in turn (set-up) and
//! consults it on every store — `Advisor::consult`, then
//! `recommend(0.10)` and `EstimateCurve::to_csv`, which is what a user
//! of the consultant waits for — and checks the recommendation by
//! simulating it with `Advisor::verify`. A trace is dropped before the
//! next one is generated. Passes repeat with fresh seeds until the run
//! has lasted `--seconds` and holds enough consultations for the p90.
//! Each generation and each consultation is timed between two runs of
//! the host-speed reference kernel, whose mean speed scales it to the
//! reference speed, and scaled again by the share of the pass's time the
//! host did not steal (see `calib`).
//!
//! A traced run calls the layers `Advisor::consult` composes one by one,
//! each inside its own span. In its first pass every consultation is
//! repeated untraced through `Advisor::consult` right after its traced
//! twin: the two curve digests must agree, and the two busy times give
//! the tracing overhead.

use crate::calib::{Reference, StealMeter};
use crate::metrics::{EndToEnd, Layers};
use crate::stats;
use crate::trace::{now, secs_since, Span, Tracer};
use crate::Outcome;
use cloudcost::CostModel;
use kvsim::StoreKind;
use mnemo::advisor::{Advisor, Consultation, OrderingKind, Recommendation};
use mnemo::{EstimateEngine, MnemoT, ModelKind, PatternEngine, PerfModel, SensitivityEngine};
use mnemo_bench::perf::fnv64;
use mnemo_bench::{paper_advisor, seed_for, stores};
use ycsb::{SizeClass, SizeModel, Trace, WorkloadSpec};

/// The SLO every consultation is asked for: at most 10% slowdown.
const SLO: f64 = 0.10;

/// Table III's five workloads at paper scale (10k keys, 100k requests).
pub fn paper_specs() -> Vec<WorkloadSpec> {
    mnemo_bench::paper_workloads_at(1)
}

/// YCSB A-F at 1 KB records plus a 100 KB variant of each, 10k keys and
/// 25k requests per trace.
pub fn ycsb_specs() -> Vec<WorkloadSpec> {
    WorkloadSpec::ycsb_core_suite()
        .into_iter()
        .flat_map(|w| {
            let small = w.scaled(10_000, 25_000);
            let mut media = small.clone();
            media.name = format!("{} @100KB", small.name);
            media.sizes = SizeModel::Single(SizeClass::Thumbnail);
            [small, media]
        })
        .collect()
}

/// One consultation's product.
struct Consulted {
    advisor: Advisor,
    consultation: Consultation,
    rec: Option<Recommendation>,
    csv: String,
    secs: f64,
}

/// The untraced consultation, exactly as a user runs it.
fn consult_plain(store: StoreKind, trace: &Trace) -> Result<Consulted, String> {
    let t0 = now();
    let advisor = paper_advisor(trace, OrderingKind::MnemoT, ModelKind::GlobalAverage);
    let consultation = advisor
        .consult(store, trace)
        .map_err(|e| format!("consultation failed: {e}"))?;
    let rec = consultation.recommend(SLO);
    let csv = consultation.curve.to_csv();
    let secs = secs_since(t0);
    Ok(Consulted {
        advisor,
        consultation,
        rec,
        csv,
        secs,
    })
}

/// The same consultation with `Advisor::consult` opened up into the
/// layers it composes (`Advisor::consult_with_pattern`), each in a span.
fn consult_traced(t: &mut Tracer, store: StoreKind, trace: &Trace) -> Result<Consulted, String> {
    let t0 = now();
    t.begin();
    let advisor = paper_advisor(trace, OrderingKind::MnemoT, ModelKind::GlobalAverage);
    let config = advisor.config().clone();
    let baselines = t
        .span(Span::KvsimBaseline, || {
            SensitivityEngine::new(config.spec.clone(), config.noise).measure(store, trace)
        })
        .map_err(|e| format!("baseline measurement failed: {e}"))?;
    let pattern = t.span(Span::CorePattern, || PatternEngine::analyze(trace));
    let order = t.span(Span::CoreOrder, || MnemoT::weight_order(&pattern));
    let model = t.span(Span::CoreFit, || {
        let sizes: Vec<u64> = pattern.stats().iter().map(|s| s.bytes).collect();
        PerfModel::fit(config.model, &baselines, &sizes)
    });
    let curve = t.span(Span::CoreCurve, || {
        EstimateEngine::new(model.clone(), CostModel::new(config.price_factor))
            .curve(&pattern, &order)
    });
    let consultation = Consultation {
        baselines,
        pattern,
        model,
        order,
        curve,
    };
    let rec = t.span(Span::CoreAdvise, || consultation.recommend(SLO));
    let csv = t.span(Span::CoreSerialise, || consultation.curve.to_csv());
    t.end(Span::Consult);
    let secs = secs_since(t0);
    Ok(Consulted {
        advisor,
        consultation,
        rec,
        csv,
        secs,
    })
}

/// The trace seed of `spec` in pass `pass` of a run seeded `seed`.
fn trace_seed(spec: &WorkloadSpec, seed: u64, pass: u64) -> u64 {
    seed_for(&format!("{}#{seed}#{pass}", spec.name))
}

/// Fold one consultation's outputs into the run digest.
fn digest_step(digest: u64, trace: &Trace, store: StoreKind, c: &Consulted) -> u64 {
    let rec = c
        .rec
        .map(|r| format!("{}:{}:{}", r.prefix, r.fast_bytes, r.est_slowdown))
        .unwrap_or_default();
    let item = format!("{digest:016x}|{}|{store}|{rec}|{}", trace.name, c.csv);
    fnv64(item.as_bytes())
}

/// What one pass over the workload set produced. Times are at the
/// reference speed unless named raw.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    setup_raw_s: f64,
    op_secs: Vec<f64>,
    op_raw_secs: Vec<f64>,
    digest: u64,
    /// |estimated - measured| throughput at each recommended split, in
    /// percent of measured.
    errs: Vec<f64>,
    slo_met: u64,
    attempted: u64,
    failed: u64,
    sim_requests: u64,
    keys: u64,
    curve_rows: u64,
    /// With `recheck`: the digest and busy time of the same
    /// consultations through `Advisor::consult`, each run right after
    /// its traced twin.
    plain_digest: u64,
    plain_secs: f64,
}

/// Generate pass `pass`'s traces one at a time, and consult and verify
/// each on every store, numbering requests from `request`. A traced `t`
/// splits each consultation into its layers; `recheck` also repeats
/// each one untraced.
fn run_pass(
    t: &mut Tracer,
    r: &mut Reference,
    specs: &[WorkloadSpec],
    seed: u64,
    pass: u64,
    request: u64,
    recheck: bool,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    for spec in specs {
        let before = r.scale(1);
        let g0 = now();
        let trace = t.span(Span::YcsbGenerate, || {
            spec.generate(trace_seed(spec, seed, pass))
        });
        let secs = secs_since(g0);
        let scale = (before + r.scale(1)) / 2.0;
        p.setup_raw_s += secs;
        p.setup_s += secs * scale;
        for store in stores() {
            t.request(request + p.attempted);
            p.attempted += 1;
            let before = r.scale(1);
            let c = if t.is_on() {
                consult_traced(t, store, &trace)?
            } else {
                consult_plain(store, &trace)?
            };
            let scale = (before + r.scale(1)) / 2.0;
            p.op_raw_secs.push(c.secs);
            p.op_secs.push(c.secs * scale);
            p.digest = digest_step(p.digest, &trace, store, &c);
            if recheck {
                let plain = consult_plain(store, &trace)?;
                p.plain_secs += plain.secs;
                p.plain_digest = digest_step(p.plain_digest, &trace, store, &plain);
            }
            let baselines = &c.consultation.baselines;
            p.sim_requests +=
                (baselines.fast.report.requests + baselines.slow.report.requests) as u64;
            p.keys += c.consultation.pattern.stats().len() as u64;
            p.curve_rows += c.consultation.curve.rows.len() as u64;
            let Some(rec) = c.rec.filter(|r| r.est_slowdown <= SLO) else {
                eprintln!(
                    "check failed: {} on {store}: no recommendation within the SLO",
                    trace.name
                );
                p.failed += 1;
                continue;
            };
            let verified = t.span(Span::KvsimVerify, || {
                c.advisor.verify(store, &trace, &c.consultation, &rec)
            });
            match verified {
                Ok((measured, slowdown)) => {
                    p.errs
                        .push((rec.est_throughput_ops_s - measured).abs() / measured * 100.0);
                    p.slo_met += u64::from(slowdown <= SLO);
                }
                Err(e) => {
                    eprintln!("check failed: {} on {store}: verify: {e}", trace.name);
                    p.failed += 1;
                }
            }
        }
    }
    Ok(p)
}

/// The pass number of the untimed warm-up pass, which lets caches fill
/// and lazy set-up finish before anything is measured.
const WARM_UP: u64 = u64::MAX;

/// Run a consult workload over `specs` for at least `seconds` and at
/// least `min_ops` consultations, after one warm-up pass, on processor
/// `cpu`, whose steal time over a pass scales the pass's times. The peak
/// memory is read after the warm-up pass, which consults every trace
/// once on every store; later passes add only the allocator's
/// fragmentation, which differs from seed to seed. The first measured
/// pass gives the digest and the sim-domain accuracy.
pub fn run(
    specs: &[WorkloadSpec],
    seed: u64,
    seconds: f64,
    min_ops: usize,
    trace: bool,
    cpu: usize,
) -> Result<Outcome, String> {
    let mut r = Reference::default();
    let warm = run_pass(
        &mut Tracer::new(false),
        &mut r,
        specs,
        seed,
        WARM_UP,
        0,
        false,
    )?;
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut t = Tracer::new(trace);
    let mut e2e = EndToEnd {
        peak_rss_kib: mnemo_bench::perf::peak_rss_kib(),
        ..EndToEnd::default()
    };
    let mut raw = EndToEnd::default();
    let mut layers = Layers::default();
    let mut first: Option<Pass> = None;
    let spent0 = r.spent_s();
    let start = now();
    let mut passes = 0u64;
    while passes == 0 || secs_since(start) < seconds || e2e.op_ms.len() < min_ops {
        // A traced run rechecks its first pass against `Advisor::consult`.
        let recheck = trace && passes == 0;
        let steal = StealMeter::start(cpu)?;
        let p = run_pass(&mut t, &mut r, specs, seed, passes, attempted, recheck)?;
        let kept = steal.kept()?;
        attempted += p.attempted;
        failed += p.failed;
        for (out, setup_s, ops, kept) in [
            (&mut e2e, p.setup_s, &p.op_secs, kept),
            (&mut raw, p.setup_raw_s, &p.op_raw_secs, 1.0),
        ] {
            out.setup_s.push(setup_s * kept);
            out.op_ms.extend(ops.iter().map(|s| s * kept * 1e3));
            out.work_per_s
                .push(ops.len() as f64 / (ops.iter().sum::<f64>() * kept));
        }
        layers.sim_requests += p.sim_requests;
        layers.keys += p.keys;
        layers.curve_rows += p.curve_rows;
        if first.is_none() {
            first = Some(p);
        }
        passes += 1;
    }
    let first = first.ok_or("no pass ran")?;
    layers.wall_s = secs_since(start) - first.plain_secs - (r.spent_s() - spent0);
    layers.verify_err_p50_pct = stats::median(&first.errs);
    layers.verify_slo_met_frac = first.slo_met as f64 / first.errs.len().max(1) as f64;
    layers.ref_kernel_s = r.kernel_times().to_vec();
    raw.peak_rss_kib = e2e.peak_rss_kib;
    let info = vec![
        format!("passes {passes} (after one warm-up pass)"),
        format!(
            "samples consultations={} setups={} reference_kernels={}",
            e2e.op_ms.len(),
            e2e.setup_s.len(),
            r.kernel_times().len()
        ),
        format!("sim rec_err_p50_pct {}", layers.verify_err_p50_pct),
        format!("sim slo_met_frac {}", layers.verify_slo_met_frac),
        raw.summary()?,
        format!(
            "reference kernel p50_us {}",
            stats::median(r.kernel_times()) * 1e6
        ),
    ];
    if trace {
        attempted += 1;
        if first.plain_digest != first.digest {
            eprintln!(
                "check failed: traced first-pass digest {:016x} != Advisor::consult's {:016x}",
                first.digest, first.plain_digest
            );
            failed += 1;
        }
        layers.overhead_frac = first.op_raw_secs.iter().sum::<f64>() / first.plain_secs - 1.0;
    }
    Ok(Outcome {
        attempted,
        failed,
        digest: first.digest,
        e2e,
        layers,
        tracer: t,
        info,
    })
}
