//! # mnemo-telemetry — the workspace's one observability subsystem
//!
//! The paper's Sensitivity Engine exists to *measure*: per-request
//! service times, tier hit ratios, throughput. Before this crate those
//! measurements were scattered across ad-hoc mechanisms — `hybridmem`
//! histograms aggregated by hand, wall-clock CSVs from the sweep timer,
//! `Instant::now()` pairs in bench binaries. `mnemo-telemetry` replaces
//! all of them with a single recording → aggregation → export pipeline:
//!
//! * [`recorder`] — per-shard [`Recorder`]s: counters, gauges and
//!   log-bucketed histograms (the [`MetricHistogram`] trait extends
//!   [`hybridmem::Histogram`], so the simulator's service-time
//!   distribution machinery is reused, not duplicated), plus
//!   span-scoped timers in *two time domains*: simulated nanoseconds
//!   ([`hybridmem::SimClock`], byte-deterministic under any `--jobs`)
//!   and host wall-clock (diagnostic only, never gated).
//! * [`snapshot`] — epoch [`Snapshot`]s with a stable, versioned schema
//!   ([`SCHEMA_VERSION`]). Merging snapshots is associative and
//!   commutative and equals recording into one recorder, so telemetry
//!   recorded on several workers is independent of worker count and
//!   completion order.
//! * [`epoch`] — [`EpochLog`]: rolls a recorder over fixed-length event
//!   epochs, producing one snapshot per epoch.
//! * [`export`] — JSONL and long-format CSV renderers (plus the legacy
//!   `timing-*.csv` stage format the CI bench-smoke job reads).
//! * [`columnar`] — a minimal self-contained columnar writer
//!   (otlp2parquet-inspired): one file per metric field with a schema
//!   header, no external Parquet dependency. Wall-domain columns are
//!   written under a `timing-` filename prefix so the CI determinism
//!   and golden gates exclude them exactly like the timing CSVs.
//!
//! Sim-domain metrics are **byte-deterministic**: exporting them after
//! a run with `--jobs 1` and `--jobs 4` yields identical bytes, which
//! CI enforces.
//!
//! # Example
//!
//! ```
//! use mnemo_telemetry::{DomainFilter, Recorder, TimeDomain};
//!
//! let mut shard_a = Recorder::new();
//! let mut shard_b = Recorder::new();
//! shard_a.count("requests", 2);
//! shard_a.observe("service_ns", 120.0);
//! shard_b.count("requests", 1);
//! shard_b.observe("service_ns", 480.0);
//!
//! let mut merged = shard_a.snapshot(0);
//! merged.merge(&shard_b.snapshot(0));
//! assert_eq!(merged.counter("requests"), 3);
//! assert_eq!(merged.histogram("service_ns").unwrap().count(), 2);
//! let jsonl = mnemo_telemetry::export::to_jsonl(&[merged], DomainFilter::SimOnly);
//! assert!(jsonl.contains("\"requests\":3"));
//! let _ = TimeDomain::Sim;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod epoch;
pub mod export;
pub mod recorder;
pub mod snapshot;

pub use columnar::write_columnar;
pub use epoch::EpochLog;
pub use export::DomainFilter;
pub use recorder::{
    AccessStatKeys, CacheStatKeys, MetricHistogram, Recorder, SimSpan, SpanRecord, TimeDomain,
};
pub use snapshot::{GaugeAgg, Snapshot, SCHEMA_VERSION};
