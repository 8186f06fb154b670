//! Component costs the figure benches do not time on their own.
//!
//! * The Estimate Engine's curve at 1k, 10k and 50k keys, and the
//!   Pattern Engine at 10k, 100k and 400k requests: §V-B calls the
//!   estimate "instantaneous", so its cost must stay linear and small.
//! * The three LLC models on one slow-only Redis run: the object-LRU
//!   default exists because it simulates far faster than the
//!   line-granular set-associative model (`tests/cache_models.rs` pins
//!   how little their throughputs differ).
//! * The knapsack solvers (greedy, `solve`, exact DP) on tiering-shaped
//!   instances.
//! * The deployment alternatives (static placement, dynamic tiering,
//!   cache mode) and the sampling profiler at three periods.
//!
//! Each measurement runs once at a fixed size, as one `SweepTimer`
//! stage, and records an exact counter for what it computed, so the
//! perf gate catches a change in the work as well as in its time.
//! Scale-independent.

use super::SuiteOutcome;
use crate::{decay_server, print_table, HarnessError};
use hybridmem::clock::NoiseConfig;
use hybridmem::{CacheConfig, StackSpec};
use kvsim::{Placement, Server, StoreKind};
use mnemo::baselines::SamplingProfiler;
use mnemo::knapsack::{dp_exact, greedy, solve, Item};
use mnemo::{EstimateEngine, ModelKind, PatternEngine, PerfModel, SensitivityEngine};
use mnemo_par::SweepTimer;
use ycsb::{Trace, WorkloadSpec};

/// The timer and the counters every measurement reports into.
struct Components {
    timer: SweepTimer,
    outcome: SuiteOutcome,
}

impl Components {
    /// Time `f` as stage `name` over `items` items, and record what it
    /// returns as the exact counter `name.metric`.
    fn measure(&mut self, name: &str, metric: &str, items: usize, f: impl FnOnce() -> u64) {
        let value = self.timer.stage(name, items, f);
        self.outcome.counter(&format!("{name}.{metric}"), value);
    }

    /// One server run per stage: the bits of the `runtime_ns` it
    /// simulated.
    fn run_server(&mut self, name: &str, mut server: Server, trace: &Trace) {
        self.measure(name, "runtime_ns_bits", trace.len(), || {
            server.run(trace).runtime_ns.to_bits()
        });
    }
}

/// Run every component measurement and report one stage each.
pub fn run() -> Result<SuiteOutcome, HarnessError> {
    let mut c = Components {
        timer: SweepTimer::new("components"),
        outcome: SuiteOutcome::default(),
    };
    estimate_speed(&mut c)?;
    llc_models(&mut c)?;
    knapsack(&mut c);
    deployments(&mut c)?;

    let Components { timer, mut outcome } = c;
    outcome.stages = timer.stages();
    outcome.items = outcome.stages.iter().map(|s| s.items as u64).sum();
    let rows: Vec<Vec<String>> = outcome
        .stages
        .iter()
        .map(|s| {
            let prefix = format!("{}.", s.name);
            let counter = outcome
                .counters
                .iter()
                .find(|(name, _)| name.starts_with(&prefix))
                .map_or_else(String::new, |(name, value)| format!("{name} = {value}"));
            vec![
                s.name.clone(),
                s.items.to_string(),
                format!("{:.3}", s.wall.as_secs_f64() * 1e3),
                counter,
            ]
        })
        .collect();
    print_table(
        "Component costs (one run per stage)",
        &["stage", "items", "wall ms", "counter"],
        &rows,
    );
    Ok(outcome)
}

/// The curve as the key space grows, from a model fitted once on a
/// small measured run, then the Pattern Engine as the trace grows.
fn estimate_speed(c: &mut Components) -> Result<(), HarnessError> {
    let small = WorkloadSpec::trending().scaled(200, 2_000).generate(1);
    let baselines = SensitivityEngine::default()
        .measure(StoreKind::Redis, &small)
        .map_err(|e| format!("baseline measurement failed: {e}"))?;
    let model = PerfModel::fit(ModelKind::GlobalAverage, &baselines, &small.sizes);
    let engine = EstimateEngine::new(model, cloudcost::CostModel::default());
    for keys in [1_000u64, 10_000, 50_000] {
        let trace = WorkloadSpec::trending()
            .scaled(keys, keys as usize * 4)
            .generate(1);
        let pattern = PatternEngine::analyze(&trace);
        let order = pattern.hotness_order();
        c.measure(
            &format!("curve-{}k", keys / 1_000),
            "rows",
            keys as usize,
            || engine.curve(&pattern, &order).rows.len() as u64,
        );
    }
    for requests in [10_000usize, 100_000, 400_000] {
        let trace = WorkloadSpec::timeline()
            .scaled(10_000, requests)
            .generate(2);
        c.measure(
            &format!("pattern-{}k", requests / 1_000),
            "requests",
            requests,
            || PatternEngine::analyze(&trace).total_requests(),
        );
    }
    Ok(())
}

/// One slow-only Redis run under each LLC model, the LLC sized at
/// 1/85 of the dataset (the paper's cache:dataset proportion).
fn llc_models(c: &mut Components) -> Result<(), HarnessError> {
    let trace = WorkloadSpec::trending().scaled(500, 5_000).generate(9);
    for (name, cache) in [
        ("llc-none", CacheConfig::disabled()),
        ("llc-object-lru", CacheConfig::paper_llc()),
        ("llc-set-assoc", CacheConfig::line_granular()),
    ] {
        let mut spec = StackSpec::paper_testbed();
        spec.cache = cache;
        spec.cache.capacity_bytes = (trace.dataset_bytes() / 85).max(1 << 16);
        let server = Server::build_with(
            StoreKind::Redis,
            spec,
            NoiseConfig::disabled(),
            &trace,
            Placement::AllSlow,
        )
        .map_err(|e| format!("{name}: cannot build server: {e}"))?;
        c.run_server(name, server, &trace);
    }
    Ok(())
}

/// `n` tiering-shaped items: record-size weights from 1 KiB to 64 KiB
/// picked by a hash of the index, and zipf-like values.
fn tiering_items(n: usize) -> Vec<Item> {
    (0..n as u64)
        .map(|i| Item {
            id: i,
            weight: 1u64 << (10 + ycsb::dist::fnv1a64(i) % 7),
            value: 1e6 / (1.0 + (i as f64).powf(0.8)),
        })
        .collect()
}

/// Greedy and `solve` at 100, 1k and 10k items, exact DP (4 KiB units)
/// up to 1k; each records its solution's value bits.
fn knapsack(c: &mut Components) {
    for n in [100usize, 1_000, 10_000] {
        let items = tiering_items(n);
        let capacity = items.iter().map(|i| i.weight).sum::<u64>() / 3;
        c.measure(&format!("greedy-{n}"), "value_bits", n, || {
            greedy(&items, capacity).value.to_bits()
        });
        c.measure(&format!("solve-{n}"), "value_bits", n, || {
            solve(&items, capacity).value.to_bits()
        });
        if n <= 1_000 {
            c.measure(&format!("dp-{n}"), "value_bits", n, || {
                dp_exact(&items, capacity, (capacity / 4096).max(1))
                    .value
                    .to_bits()
            });
        }
    }
}

/// Static placement, dynamic tiering and cache mode with a FastMem
/// budget of 1/5 of the dataset, then the sampling profiler at periods
/// 100, 1k and 10k.
fn deployments(c: &mut Components) -> Result<(), HarnessError> {
    let trace = WorkloadSpec::trending().scaled(500, 8_000).generate(6);
    let budget = trace.dataset_bytes() / 5;
    let testbed = StackSpec::paper_testbed();
    let fixed = Server::build(StoreKind::Redis, &trace, Placement::AllSlow)
        .map_err(|e| format!("static: cannot build server: {e}"))?;
    c.run_server("deploy-static", fixed, &trace);
    let dynamic = decay_server(&trace, &testbed, budget, 1_000)?;
    c.run_server("deploy-dynamic", dynamic, &trace);
    let cache_mode = Server::build_cache_mode(StoreKind::Redis, testbed, &trace, budget)
        .map_err(|e| format!("cache mode: cannot build server: {e}"))?;
    c.run_server("deploy-cache-mode", cache_mode, &trace);

    let trace = WorkloadSpec::timeline().scaled(1_000, 10_000).generate(6);
    for period in [100u64, 1_000, 10_000] {
        c.measure(&format!("sampling-{period}"), "events", trace.len(), || {
            SamplingProfiler::new(period).profile(&trace).events
        });
    }
    Ok(())
}
