//! # Mnemo — memory capacity sizing and data tiering consultant
//!
//! Reproduction of *Mnemo: Boosting Memory Cost Efficiency in Hybrid
//! Memory Systems* (Doudali & Gavrilovska, 2019).
//!
//! Mnemo answers one question for key-value store operators on hybrid
//! memory (fast DRAM + cheap/slow NVM): **what is the minimum amount of
//! FastMem a workload needs to perform within a given SLO**, and what does
//! every intermediate capacity split cost? It does so *without* any
//! fine-grained execution monitoring: two real baseline runs (everything
//! in FastMem, everything in SlowMem) plus an a-priori workload
//! description feed a simple analytical model that is accurate to a
//! fraction of a percent.
//!
//! The crate mirrors the paper's architecture (its Fig. 6):
//!
//! * [`sensitivity`] — the **Sensitivity Engine**: executes the workload
//!   against the two extreme placements and extracts performance
//!   baselines (total runtime, average read/write service times).
//! * [`pattern`] — the **Pattern Engine**: analyses the request pattern
//!   into per-key statistics `Req(keys)` and produces key orderings
//!   (touch order for standalone Mnemo, externally supplied orders for
//!   the "existing tiering solution" deployment).
//! * [`tiering`] — the **MnemoT Pattern Engine**: weight-based ordering
//!   (`accesses / size`) and knapsack selection, the key-value-store
//!   optimised tiering of Section IV.
//! * [`estimate`] — the **Estimate Engine**: per-prefix throughput and
//!   cost-reduction rows; [`curve`] holds the resulting
//!   [`EstimateCurve`] and its CSV form.
//! * [`placement`] — the **Placement Engine**: statically populates the
//!   Fast/Slow servers from a chosen row.
//! * [`advisor`] — the end-to-end consultant: pick the cheapest
//!   configuration inside a performance SLO (the paper's Fig. 9 query).
//! * [`model`] — estimation model variants (the paper's global-average
//!   model plus a size-aware refinement) — see the ablation benches.
//! * [`accuracy`] — estimate-vs-measured error statistics (Fig. 8a).
//! * [`tail`] — tail-latency estimation from the per-key service-time
//!   mixture (an extension: the paper explicitly does not estimate
//!   tails).
//! * [`baselines`] — comparator profilers (instrumentation-based and
//!   one-baseline+ML) for the Table IV overhead comparison.
//! * [`knapsack`] — the 0/1 knapsack solver used by tiering baselines.
//! * [`multi`] — shared-FastMem allocation across consolidated tenants
//!   (extension).
//!
//! # Quickstart
//!
//! ```
//! use mnemo::advisor::{Advisor, AdvisorConfig};
//! use kvsim::StoreKind;
//! use ycsb::WorkloadSpec;
//!
//! // A trimmed trending workload (10k keys / 100k requests in the paper).
//! let trace = WorkloadSpec::trending().scaled(300, 3_000).generate(7);
//! let advisor = Advisor::new(AdvisorConfig::default());
//! let consult = advisor.consult(StoreKind::Redis, &trace).unwrap();
//!
//! // The cheapest split within 10% of FastMem-only performance:
//! let rec = consult.recommend(0.10).unwrap();
//! assert!(rec.cost_reduction < 1.0);
//! assert!(rec.fast_bytes <= trace.dataset_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod advisor;
pub mod baselines;
pub mod curve;
pub mod estimate;
pub mod knapsack;
pub mod model;
pub mod multi;
pub mod pattern;
pub mod placement;
pub mod report;
pub mod sensitivity;
pub mod tail;
pub mod tiering;

pub use accuracy::{ErrorStats, EvalPoint};
pub use advisor::{
    Advisor, AdvisorConfig, Consultation, DegradedReason, Recommendation, ResilientRecommendation,
};
pub use curve::{CurveRow, EstimateCurve};
pub use estimate::EstimateEngine;
pub use model::{ModelKind, PerfModel};
pub use pattern::{KeyStats, PatternEngine};
pub use sensitivity::{BaselineRun, Baselines, SensitivityEngine};
pub use tail::TailEstimator;
pub use tiering::MnemoT;
