//! Hybrid memory system simulator for the Mnemo reproduction.
//!
//! The Mnemo paper evaluates on a dual-socket Xeon where one socket's DRAM
//! is throttled to emulate NVM (Table I: DRAM at 65.7 ns / 14.9 GB/s,
//! emulated NVM at 238.1 ns / 1.81 GB/s, 12 MB shared LLC). That hardware
//! is not available here, so this crate rebuilds the testbed as a
//! deterministic simulator:
//!
//! * [`spec`] — tier timing specifications, with the paper's Table I values
//!   as presets.
//! * [`cache`] — last-level-cache models: an object-granular LRU (fast,
//!   default) and a line-granular set-associative LRU (accurate, used for
//!   validation and the cache ablation bench), plus a pass-through.
//! * [`device`] — per-tier timing: `latency + bytes / bandwidth`.
//! * [`alloc`] — stable object ids and a segregated free-list that
//!   assigns simulated addresses per tier.
//! * [`stack`] — the memory system: an ordered [`TierStack`] of devices
//!   (DRAM + NVM + SSD-swap, any depth) with per-tier names, capacities
//!   and $/GiB prices behind a shared LLC — allocate / free / migrate
//!   objects between tiers and charge simulated nanoseconds for reads
//!   and writes. The paper's FastMem/SlowMem testbed is its two-tier
//!   case ([`StackSpec::paper_testbed`]).
//! * [`system`] — whole-system LLC counters ([`system::CacheStats`]).
//! * [`clock`] — simulated nanosecond clock and a seeded Gaussian noise
//!   model standing in for real-hardware measurement variability; its
//!   factor streams live in one process-wide table bounded by
//!   [`clock::NOISE_TABLE_BYTES`], so each `(seed, sigma)` stream is
//!   drawn once and then shared.
//! * [`degrade`] — time-varying per-tier degradation profiles (latency
//!   spikes, bandwidth throttles, capacity shrink), the device-side
//!   mechanism behind the `mnemo-faults` injection crate.
//! * [`stats`] — access counters and service-time histograms.
//!
//! The simulator charges time per *object access*, front-ended by the LLC
//! model: bytes that hit in cache are served at cache speed, bytes that
//! miss are served at the owning tier's speed. This is the same first-order
//! behaviour the paper's throttled socket realises physically, which is all
//! the downstream figures depend on (they compare *relative* service times
//! between tiers).
//!
//! # Example
//!
//! ```
//! use hybridmem::{AccessKind, StackSpec, TierId, TierStack};
//!
//! let mut mem = TierStack::new(StackSpec::paper_testbed()).unwrap();
//! let obj = mem.alloc(100 * 1024, TierId::FAST).unwrap();
//! let t_fast = mem.access(obj, AccessKind::Read);
//! mem.migrate(obj, TierId::SLOW).unwrap();
//! let t_slow = mem.access(obj, AccessKind::Read);
//! assert!(t_slow > t_fast, "SlowMem reads must be slower");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Byte-size/nanosecond arithmetic must not silently truncate or drop
// sign: casts go through the audited helpers in [`num`] (statically
// enforced as mnemo-lint R002; the clippy pair below backs it up at
// the compiler level for the float-domain casts R002 leaves to clippy).
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![cfg_attr(test, allow(clippy::cast_possible_truncation, clippy::cast_sign_loss))]

pub mod alloc;
pub mod cache;
pub mod clock;
pub mod degrade;
pub mod dense;
pub mod det;
pub mod device;
pub mod num;
pub mod spec;
pub mod stack;
pub mod stats;
pub mod system;

pub use alloc::ObjectId;
pub use cache::{Cache, CacheConfig, CacheKind, CacheOutcome};
pub use clock::{NoiseModel, SimClock};
pub use degrade::{DegradationProfile, DegradationWindow, TierFactors};
pub use dense::DenseU64Map;
pub use det::{det_map, det_set, BuildDetHasher, DetHashMap, DetHashSet};
pub use device::{CapacityError, Device};
pub use spec::{AccessKind, TierId, TierSpec};
pub use stack::{
    ChargeLanes, OwnTier, PairNs, Quote, StackError, StackPlacement, StackSpec, TierDef, TierStack,
};
pub use stats::{AccessStats, Histogram};
pub use system::CacheStats;
