//! Deterministic fault injection for the Mnemo stack.
//!
//! Real hybrid memory misbehaves — NVM latency and bandwidth drift with
//! wear and contention, capacity reservations get lost, migrations fail,
//! shards crash. This crate describes that misbehaviour as a seeded,
//! sim-clock-scheduled [`FaultPlan`] (TOML- or JSON-loadable) and
//! compiles it into the forms the rest of the stack consumes:
//!
//! * [`FaultPlan::degradation_profile`] — per-tier latency spikes,
//!   bandwidth throttles and capacity shrinks as a
//!   [`hybridmem::DegradationProfile`] the devices consult on every
//!   access charge and reservation;
//! * [`FaultPlan::migration_faults`] — a pure seeded function of
//!   `(now_ns, key, attempt)` deciding which migrations fail, driving
//!   the epoch re-planner's capped-exponential [`Backoff`] retry loop;
//! * [`FaultPlan::shard_crashes`] — per-shard crash schedules with
//!   restart and rebuild costs; a `kvsim::Server` runs shard 0's, and
//!   the serve daemon turns tenant-scoped crashes into outage windows.
//!
//! Everything is keyed off simulated time and the plan seed — no wall
//! clock, no shared RNG state — so a faulted run produces byte-identical
//! sim-domain results and telemetry for any `--jobs` worker count,
//! preserving the repository's determinism gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod parse;
pub mod plan;

pub use backoff::Backoff;
pub use parse::{LoadError, PlanError, TierNames};
pub use plan::{FaultEvent, FaultPlan, MigrationFaults, ShardCrash, StorageFaults};
