//! # mnemo-stream — the streaming Pattern Engine
//!
//! Mnemo's offline pipeline assumes the whole workload trace is
//! available up front: the Pattern Engine walks it once and holds exact
//! per-key statistics. In production the "trace" is an unbounded stream
//! of requests against a live store, and holding per-key state for the
//! full key space is exactly the overhead Mnemo exists to avoid. This
//! crate profiles that stream in **O(k) memory, independent of key count
//! and stream length**, and re-runs the consultation only when the
//! workload's shape actually changes:
//!
//! * [`sketch`] — Count-Min sketches for per-key read/write counts, with
//!   computed `eps * N` one-sided error bounds;
//! * [`topk`] — Space-Saving heavy hitters: the head of the access
//!   distribution, with per-key op split and record-size EWMA;
//! * [`distinct`] — linear-counting cardinality of the touched key set;
//! * [`epoch`] — sliding-window epochs whose zipfian exponent (fitted
//!   with [`ycsb::fit::fit_zipf_theta`], the same fit the offline skew
//!   report uses) and hot-set overlap drive a drift detector;
//! * [`profiler`] — [`StreamProfiler`]: the composition, plus the
//!   head-exact/tail-uniform reconstruction of an approximate
//!   [`mnemo::PatternEngine`];
//! * [`advise`] — [`OnlineAdvisor`]: the incremental re-advise loop
//!   feeding reconstructed patterns through `Advisor::consult_with_pattern`
//!   and re-emitting an SLO sweet spot only on significant drift;
//! * [`telemetry`] — bridges mapping profiler occupancy, drift epochs
//!   and re-advise emissions onto `mnemo-telemetry` metrics, shared by
//!   `mnemo watch` and embedded consumers.
//!
//! Events come from [`ycsb::Trace::events`] in replay, or live from
//! `kvsim::Server::run_with_tap`.
//!
//! # Example
//!
//! ```
//! use mnemo_stream::{StreamConfig, StreamProfiler};
//! use ycsb::WorkloadSpec;
//!
//! let trace = WorkloadSpec::trending().scaled(300, 5_000).generate(7);
//! let mut profiler = StreamProfiler::new(StreamConfig::default());
//! for event in trace.events() {
//!     profiler.observe(&event);
//! }
//! // Bounded state, whole-stream coverage:
//! assert!(profiler.memory_bytes() <= 64 * 1024);
//! assert_eq!(profiler.events(), trace.len() as u64);
//! // The reconstructed pattern feeds the ordinary advisor pipeline.
//! let approx = profiler.approx_pattern();
//! assert_eq!(approx.pattern.total_requests(), trace.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advise;
pub mod distinct;
pub mod epoch;
pub mod profiler;
pub mod sketch;
pub mod telemetry;
pub mod topk;

pub use advise::{advise_trigger, OnlineAdvisor, Readvice};
pub use distinct::{DistinctCounter, DistinctState};
pub use epoch::{Drift, DriftConfig, EpochSummary, SkewTracker, TrackerState};
pub use profiler::{ApproxPattern, ProfilerState, StreamConfig, StreamProfiler};
pub use sketch::{CountMinSketch, SketchState};
pub use topk::{SpaceSaving, TopEntry, TopKState};
