//! The incremental re-advise loop: sketches → advisor, only on drift.
//!
//! An [`OnlineAdvisor`] pairs a [`StreamProfiler`] with a configured
//! [`mnemo::Advisor`] and the two measured baselines the paper's
//! Sensitivity Engine produced up front. Events flow in continuously;
//! at every epoch boundary the skew-drift detector decides whether the
//! workload's shape moved, and only then is the sketch state converted
//! into an approximate pattern and pushed through the estimate/advisor
//! pipeline for a fresh SLO sweet-spot recommendation. A steady
//! workload therefore costs O(1) amortised per event, with consultation
//! work proportional to how often the workload actually changes.
//!
//! Drift handling is two-step: when an epoch closes with significant
//! drift, the accumulated sketches describe a *mixture* of the old and
//! new regimes, so the profiler is reset instead of consulted. One
//! epoch later the fresh state describes the new regime alone and the
//! advice is emitted then, carrying the original drift as its trigger.

use crate::epoch::Drift;
use crate::profiler::{StreamConfig, StreamProfiler};
use mnemo::advisor::{Advisor, Recommendation};
use mnemo::sensitivity::Baselines;
use ycsb::AccessEvent;

/// One re-advise emission.
#[derive(Debug, Clone)]
pub struct Readvice {
    /// Events consumed when the advice was produced.
    pub at_event: u64,
    /// Why the re-consultation ran.
    pub trigger: Drift,
    /// The fresh sweet-spot recommendation (`None` only for a degenerate
    /// empty curve).
    pub recommendation: Option<Recommendation>,
    /// Profiler footprint at emission time, for observability.
    pub profiler_bytes: usize,
}

/// The two-step drift decision at one epoch boundary, shared by every
/// drift-driven re-advise loop. An `Initial` epoch returns the trigger
/// to advise with: the drift stored in `pending` by the last reset, or
/// `Initial` itself. Significant drift resets `profiler`, stores the
/// drift in `pending` and returns `None`, as does a stable epoch.
pub fn advise_trigger(
    drift: Drift,
    pending: &mut Option<Drift>,
    profiler: &mut StreamProfiler,
) -> Option<Drift> {
    match drift {
        Drift::Initial => Some(pending.take().unwrap_or(Drift::Initial)),
        drift if drift.is_significant() => {
            *pending = Some(drift);
            profiler.reset();
            None
        }
        _ => None,
    }
}

/// The streaming consultant.
pub struct OnlineAdvisor {
    profiler: StreamProfiler,
    advisor: Advisor,
    baselines: Baselines,
    slo: f64,
    consultations: u64,
    /// Drift that caused the last profiler reset; attached as the
    /// trigger of the advice emitted one epoch later.
    pending: Option<Drift>,
}

impl OnlineAdvisor {
    /// Build the loop from pre-measured baselines. `slo` is the slowdown
    /// budget passed to every re-consultation (e.g. `0.10`).
    pub fn new(
        config: StreamConfig,
        advisor: Advisor,
        baselines: Baselines,
        slo: f64,
    ) -> OnlineAdvisor {
        assert!((0.0..=1.0).contains(&slo), "slo {slo} out of [0,1]");
        OnlineAdvisor {
            profiler: StreamProfiler::new(config),
            advisor,
            baselines,
            slo,
            consultations: 0,
            pending: None,
        }
    }

    /// The profiler (for inspection: footprint, top keys, epoch state).
    pub fn profiler(&self) -> &StreamProfiler {
        &self.profiler
    }

    /// How many full consultations have run — the work the drift
    /// detector saved is `epochs - consultations`.
    pub fn consultations(&self) -> u64 {
        self.consultations
    }

    /// Feed one event. Returns fresh advice once per regime: at the
    /// close of the first epoch after start-up or after a drift-induced
    /// reset. Epochs that close *with* drift reset the profiler and
    /// return `None` — the advice follows one epoch later, from state
    /// that describes the new regime alone.
    pub fn on_event(&mut self, event: &AccessEvent) -> Option<Readvice> {
        self.on_event_inner(event, None)
    }

    /// [`Self::on_event`], recording every epoch-boundary drift
    /// decision, the profiler occupancy at each boundary, and any
    /// advice emission into `tel` (see [`crate::telemetry`] for the
    /// metric names). All recorded quantities derive from the event
    /// stream alone, so the telemetry stays sim-domain deterministic.
    pub fn on_event_telemetered(
        &mut self,
        event: &AccessEvent,
        tel: &mut mnemo_telemetry::Recorder,
    ) -> Option<Readvice> {
        self.on_event_inner(event, Some(tel))
    }

    fn on_event_inner(
        &mut self,
        event: &AccessEvent,
        mut tel: Option<&mut mnemo_telemetry::Recorder>,
    ) -> Option<Readvice> {
        let drift = self.profiler.observe(event)?;
        if let Some(t) = tel.as_deref_mut() {
            crate::telemetry::record_drift(t, &drift);
            crate::telemetry::record_profiler(t, &self.profiler);
        }
        let advice = advise_trigger(drift, &mut self.pending, &mut self.profiler)
            .map(|trigger| self.readvise(trigger));
        if let (Some(t), Some(a)) = (tel, advice.as_ref()) {
            crate::telemetry::record_readvice(t, a);
        }
        advice
    }

    /// Force a consultation from the current sketch state (used at
    /// stream end, or by callers with their own trigger policy).
    pub fn readvise(&mut self, trigger: Drift) -> Readvice {
        self.consultations += 1;
        let pattern = self.profiler.approx_pattern().pattern.clone();
        let recommendation = self
            .advisor
            .consult_with_pattern(self.baselines.clone(), pattern)
            .recommend(self.slo);
        Readvice {
            at_event: self.profiler.events(),
            trigger,
            recommendation,
            profiler_bytes: self.profiler.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::DriftConfig;
    use kvsim::StoreKind;
    use mnemo::advisor::AdvisorConfig;
    use mnemo::sensitivity::SensitivityEngine;
    use ycsb::{DistKind, WorkloadSpec};

    fn online_for(trace: &ycsb::Trace, epoch_len: u64) -> OnlineAdvisor {
        let config = AdvisorConfig::default();
        let baselines = SensitivityEngine::new(config.spec.clone(), config.noise)
            .measure(StoreKind::Redis, trace)
            .unwrap();
        let stream_config = StreamConfig {
            drift: DriftConfig {
                epoch_len,
                ..DriftConfig::default()
            },
            ..StreamConfig::default()
        };
        OnlineAdvisor::new(stream_config, Advisor::new(config), baselines, 0.10)
    }

    #[test]
    fn first_epoch_advises_then_steady_state_stays_quiet() {
        let trace = WorkloadSpec::trending().scaled(500, 20_000).generate(5);
        let mut online = online_for(&trace, 4_000);
        let advice: Vec<Readvice> = trace.events().filter_map(|e| online.on_event(&e)).collect();
        assert!(!advice.is_empty(), "the initial epoch must advise");
        assert_eq!(advice[0].trigger, Drift::Initial);
        assert!(advice[0].recommendation.is_some());
        // 5 epochs, but a steady workload re-advises only the first time.
        assert!(
            online.consultations() < 3,
            "steady workload consulted {} times",
            online.consultations()
        );
    }

    #[test]
    fn drift_produces_fresh_advice() {
        // Phase 1 zipfian, phase 2 uniform: the sweet spot moves (uniform
        // spreads mass, needing more FastMem for the same SLO).
        let zipf = WorkloadSpec {
            distribution: DistKind::ScrambledZipfian { theta: 0.99 },
            ..WorkloadSpec::trending().scaled(500, 15_000)
        }
        .generate(6);
        let uniform = WorkloadSpec {
            distribution: DistKind::Uniform,
            ..WorkloadSpec::trending().scaled(500, 15_000)
        }
        .generate(7);
        let mut online = online_for(&zipf, 5_000);
        let mut advice = Vec::new();
        for e in zipf.events().chain(uniform.events()) {
            advice.extend(online.on_event(&e));
        }
        assert!(
            advice.len() >= 2,
            "phase change must re-advise: {}",
            advice.len()
        );
        let first = advice.first().unwrap().recommendation.unwrap();
        let last = advice.last().unwrap().recommendation.unwrap();
        assert!(
            last.fast_ratio > first.fast_ratio,
            "uniform phase needs more FastMem: {} -> {}",
            first.fast_ratio,
            last.fast_ratio
        );
        // Every emission reports a bounded profiler.
        for a in &advice {
            assert!(a.profiler_bytes <= 64 * 1024);
        }
    }

    #[test]
    fn telemetered_on_event_matches_plain_and_records_epochs() {
        let trace = WorkloadSpec::trending().scaled(500, 20_000).generate(5);
        let mut plain = online_for(&trace, 4_000);
        let mut traced = online_for(&trace, 4_000);
        let mut tel = mnemo_telemetry::Recorder::new();
        for e in trace.events() {
            let a = plain.on_event(&e);
            let b = traced.on_event_telemetered(&e, &mut tel);
            assert_eq!(a.is_some(), b.is_some(), "telemetry must not change advice");
        }
        let snap = tel.snapshot(0);
        assert_eq!(snap.counter("stream.epochs"), 20_000 / 4_000);
        assert_eq!(
            snap.counter("stream.advise.emitted"),
            traced.consultations(),
            "every consultation shows up as an emission"
        );
        assert!(snap.gauge("stream.profiler.bytes").unwrap().max > 0.0);
    }
}
