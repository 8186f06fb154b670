//! The Sensitivity Engine (Fig. 6, component 1).
//!
//! "A customized YCSB client, which executes the actual workload itself
//! ... It determines the performance baselines for the best case, where
//! all data is in FastMem, and worst case, where all data is in SlowMem,
//! including average total runtime and average read and write request
//! response times."

use hybridmem::clock::NoiseConfig;
use hybridmem::{StackSpec, TierId};
use kvsim::{
    ChargeTape, EngineError, Placement, ReplayDecline, RequestSample, RunReport, Server, StoreKind,
};
use std::borrow::Cow;
use std::sync::Arc;
use ycsb::Trace;

/// One measured baseline (one extreme placement).
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Total measured runtime (ns).
    pub runtime_ns: f64,
    /// Average read service time (ns).
    pub avg_read_ns: f64,
    /// Average write service time (ns).
    pub avg_write_ns: f64,
    /// The run's report. Per-request samples, which feed the size-aware
    /// model, are read through [`Baselines::samples`]: a lane of the
    /// one-walk measurement keeps totals only, no samples and no
    /// histograms; its full report is [`RunReport::from_samples`] of
    /// those samples.
    pub report: RunReport,
}

impl BaselineRun {
    fn from_report(report: RunReport) -> BaselineRun {
        BaselineRun {
            runtime_ns: report.runtime_ns,
            avg_read_ns: report.avg_read_ns(),
            avg_write_ns: report.avg_write_ns(),
            report,
        }
    }

    /// Throughput of this baseline (ops/s).
    pub fn throughput_ops_s(&self) -> f64 {
        self.report.throughput_ops_s()
    }
}

/// The pair of extreme-placement baselines.
#[derive(Debug, Clone)]
pub struct Baselines {
    /// Store that was measured.
    pub store: StoreKind,
    /// Workload name.
    pub workload: String,
    /// Everything-in-FastMem run (best case).
    pub fast: BaselineRun,
    /// Everything-in-SlowMem run (worst case).
    pub slow: BaselineRun,
    /// Each request's FastMem and SlowMem charge from the one-walk
    /// measurement, shared between clones; `None` when the baselines
    /// came from two separate runs (or were built some other way).
    pub tape: Option<Arc<ChargeTape>>,
}

impl Baselines {
    /// The tier-latency deltas the estimate model is built on:
    /// `(SlowRead - FastRead, SlowWrite - FastWrite)` in ns.
    pub fn deltas(&self) -> (f64, f64) {
        (
            self.slow.avg_read_ns - self.fast.avg_read_ns,
            self.slow.avg_write_ns - self.fast.avg_write_ns,
        )
    }

    /// The exact noise-free runtime (ns) of every prefix split of
    /// `order`: entry `i` keeps the first `i` keys in FastMem and the
    /// rest in SlowMem. The ledger is folded from the tape on each call.
    /// `None` without a tape.
    pub fn truth_curve(&self, order: &[u64]) -> Option<Vec<f64>> {
        self.tape.as_ref().map(|t| t.ledger().truth_curve(order))
    }

    /// The per-request samples of the baseline with every key in `tier`
    /// (FastMem or SlowMem), in trace order: replayed from the tape
    /// through that lane's noise stream, or else the report's own.
    /// `None` when neither has them.
    pub fn samples(&self, tier: TierId) -> Option<Cow<'_, [RequestSample]>> {
        if let Some(tape) = &self.tape {
            return tape.samples(tier).map(Cow::Owned);
        }
        let run = match tier {
            TierId::FAST => &self.fast,
            TierId::SLOW => &self.slow,
            _ => return None,
        };
        run.report.samples.as_deref().map(Cow::Borrowed)
    }

    /// The run of `trace` on a fresh `store` server over `spec` with
    /// `noise` and `placement`, replayed from the tape instead of
    /// simulated (see [`ChargeTape::replay`]); a typed decline when there
    /// is no tape or it does not cover that run.
    pub fn replay(
        &self,
        store: StoreKind,
        spec: &StackSpec,
        trace: &Trace,
        noise: NoiseConfig,
        placement: &Placement,
    ) -> Result<RunReport, ReplayDecline> {
        self.tape
            .as_ref()
            .ok_or(ReplayDecline::NoTape)?
            .replay(store, spec, trace, noise, placement)
    }

    /// [`Self::replay`], or when it declines the full simulation it
    /// stands for: the same report either way.
    pub fn replay_or_run(
        &self,
        store: StoreKind,
        spec: &StackSpec,
        trace: &Trace,
        noise: NoiseConfig,
        placement: Placement,
    ) -> Result<RunReport, EngineError> {
        match self.replay(store, spec, trace, noise, &placement) {
            Ok(report) => Ok(report),
            Err(_) => {
                Ok(Server::build_with(store, spec.clone(), noise, trace, placement)?.run(trace))
            }
        }
    }

    /// Relative throughput gap between the extremes: how sensitive this
    /// store/workload pair is to hybrid memory at all (§V-A's
    /// store-comparison observation).
    pub fn sensitivity(&self) -> f64 {
        let f = self.fast.throughput_ops_s();
        let s = self.slow.throughput_ops_s();
        if s == 0.0 {
            return 0.0;
        }
        f / s - 1.0
    }
}

/// The Sensitivity Engine: measures the two baselines by real (simulated)
/// execution, with no application modification.
#[derive(Debug, Clone)]
pub struct SensitivityEngine {
    spec: StackSpec,
    noise: NoiseConfig,
    fault_plan: Option<mnemo_faults::FaultPlan>,
}

impl Default for SensitivityEngine {
    fn default() -> Self {
        SensitivityEngine::new(StackSpec::paper_testbed(), NoiseConfig::disabled())
    }
}

impl SensitivityEngine {
    /// Engine over a given testbed spec and measurement-noise model.
    pub fn new(spec: StackSpec, noise: NoiseConfig) -> SensitivityEngine {
        SensitivityEngine {
            spec,
            noise,
            fault_plan: None,
        }
    }

    /// Measure under a fault plan: both baseline servers get the plan's
    /// degradation windows and crash schedule installed before running,
    /// so the resulting estimate curve describes the *faulted* testbed.
    pub fn with_fault_plan(mut self, plan: mnemo_faults::FaultPlan) -> SensitivityEngine {
        self.fault_plan = Some(plan);
        self
    }

    /// The testbed spec in use.
    pub fn spec(&self) -> &StackSpec {
        &self.spec
    }

    /// Execute the workload "as-is" under both extreme placements. One
    /// trace walk over an all-FastMem server prices every request in
    /// both tiers ([`Server::run_paired`]) and keeps each request's two
    /// charges as the [`ChargeTape`] every split replays from. When the
    /// walk declines — a fault plan is installed, SlowMem cannot hold the
    /// dataset, or a key needs more than the tape's 31 bits — or the server
    /// cannot be built, the baselines come from two separate runs
    /// instead, which also report any build error. Either way the result
    /// is bit-identical to [`Self::measure_one`] under each placement.
    pub fn measure(&self, store: StoreKind, trace: &Trace) -> Result<Baselines, EngineError> {
        if let Some(baselines) = self.measure_paired(store, trace) {
            return Ok(baselines);
        }
        // mnemo-lint: allow(D007, "predict's dot product runs whole within one arm of the join; no cross-worker reduction")
        let (fast, slow) = mnemo_par::Pool::current().join(
            || self.measure_one(store, trace, Placement::AllFast),
            || self.measure_one(store, trace, Placement::AllSlow),
        );
        Ok(Baselines {
            store,
            workload: trace.name.clone(),
            fast: fast?,
            slow: slow?,
            tape: None,
        })
    }

    /// Both baselines from one paired walk, or `None` when it is not
    /// available.
    fn measure_paired(&self, store: StoreKind, trace: &Trace) -> Option<Baselines> {
        let mut server = Server::build_with(
            store,
            self.spec.clone(),
            self.noise_for(TierId::FAST),
            trace,
            Placement::AllFast,
        )
        .ok()?;
        if let Some(plan) = &self.fault_plan {
            server.install_fault_plan(plan);
        }
        let run = server
            .run_paired(trace, TierId::SLOW, self.noise_for(TierId::SLOW))
            .ok()?;
        Some(Baselines {
            store,
            workload: trace.name.clone(),
            fast: BaselineRun::from_report(run.own),
            slow: BaselineRun::from_report(run.alt),
            tape: Some(Arc::new(run.tape)),
        })
    }

    /// The noise of the run led by `tier`: the two baselines' jitter is
    /// decorrelated by a per-tier seed offset.
    fn noise_for(&self, tier: TierId) -> NoiseConfig {
        let mut noise = self.noise;
        noise.seed = noise.seed.wrapping_add(if tier == TierId::FAST {
            0x5eed_fa57
        } else {
            0x5eed_510e
        });
        noise
    }

    /// One extreme run.
    pub fn measure_one(
        &self,
        store: StoreKind,
        trace: &Trace,
        placement: Placement,
    ) -> Result<BaselineRun, EngineError> {
        let tier = match &placement {
            Placement::AllFast => TierId::FAST,
            Placement::AllSlow => TierId::SLOW,
            Placement::FastSet(_) => TierId::FAST, // mixed; seeded as fast-led
        };
        let mut server = Server::build_with(
            store,
            self.spec.clone(),
            self.noise_for(tier),
            trace,
            placement,
        )?;
        if let Some(plan) = &self.fault_plan {
            server.install_fault_plan(plan);
        }
        Ok(BaselineRun::from_report(server.run(trace)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::WorkloadSpec;

    fn trace() -> Trace {
        WorkloadSpec::trending().scaled(150, 2_000).generate(3)
    }

    #[test]
    fn baselines_bound_the_tradeoff() {
        let b = SensitivityEngine::default()
            .measure(StoreKind::Redis, &trace())
            .unwrap();
        assert!(b.fast.runtime_ns < b.slow.runtime_ns);
        assert!(b.fast.avg_read_ns < b.slow.avg_read_ns);
        assert!(b.sensitivity() > 0.0);
        let (dr, dw) = b.deltas();
        assert!(dr > 0.0, "read delta {dr}");
        assert!(dw >= 0.0, "write delta {dw}");
    }

    #[test]
    fn memcached_least_sensitive_dynamo_most() {
        let t = trace();
        let eng = SensitivityEngine::default();
        let redis = eng.measure(StoreKind::Redis, &t).unwrap().sensitivity();
        let mem = eng.measure(StoreKind::Memcached, &t).unwrap().sensitivity();
        let dyn_ = eng.measure(StoreKind::Dynamo, &t).unwrap().sensitivity();
        assert!(
            dyn_ > redis && redis > mem,
            "dyn {dyn_:.3} redis {redis:.3} mem {mem:.3}"
        );
    }

    #[test]
    fn writes_see_smaller_deltas_than_reads() {
        let t = WorkloadSpec::edit_thumbnail()
            .scaled(150, 2_000)
            .generate(3);
        let b = SensitivityEngine::default()
            .measure(StoreKind::Redis, &t)
            .unwrap();
        let (dr, dw) = b.deltas();
        assert!(dw < dr, "write delta {dw} must be below read delta {dr}");
    }

    #[test]
    fn noisy_baselines_stay_close_to_clean() {
        let t = trace();
        let clean = SensitivityEngine::default()
            .measure(StoreKind::Redis, &t)
            .unwrap();
        let noisy =
            SensitivityEngine::new(StackSpec::paper_testbed(), NoiseConfig::default_jitter(1))
                .measure(StoreKind::Redis, &t)
                .unwrap();
        let rel = (clean.fast.runtime_ns - noisy.fast.runtime_ns).abs() / clean.fast.runtime_ns;
        assert!(rel < 0.02, "noise drift {rel}");
    }
}
