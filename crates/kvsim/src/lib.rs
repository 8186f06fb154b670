//! Key-value store simulation substrate for the Mnemo reproduction.
//!
//! The paper measures three unmodified in-memory key-value stores — Redis,
//! Memcached and (local) DynamoDB — deployed on a hybrid memory testbed
//! and driven by a YCSB client. This crate rebuilds those servers as
//! *engine models* over one storage substrate, the [`hybridmem`]
//! simulator's `TierStack`: the paper's two-tier testbed and deeper
//! DRAM/NVM/SSD hierarchies run through the same engines and the same
//! request loop.
//!
//! * [`profile`] — per-engine cost profiles (fixed per-op service cost,
//!   metadata pointer-chases, data amplification). These three constants
//!   mechanistically reproduce the sensitivity ordering the paper
//!   observes in §V-A: DynamoDB ≫ Redis ≫ Memcached.
//! * [`engine`] — the [`KvEngine`] trait: load / get /
//!   put / delete with per-key tier placement and migration.
//! * [`redis_like`], [`memcached_like`], [`dynamo_like`] — the three
//!   engines, each with its own index and allocation behaviour (dict
//!   pointer-chasing, slab classes, object-graph amplification);
//!   [`rocks_like`] adds a storage-engaged LSM engine as the negative
//!   control for the estimation model's target class.
//! * [`server`] — executes [`ycsb`] traces against an engine, producing
//!   runtimes, throughputs, per-request service times and latency
//!   histograms (the paper's Sensitivity Engine measures against this).
//!   Keys are placed statically ([`Placement`]) or by a
//!   `mnemo-tier` policy with optional epoch re-planning; the migrating
//!   tierer Mnemo is set against (the "existing tiering solution" of the
//!   paper's Fig. 2b) is one such policy, `mnemo_tier::DecayPolicy`.
//!   Every deployment below runs on this one request loop. Its paired
//!   walk (`Server::run_paired`) prices each request in two tiers at
//!   once. On the three paper engines it probes the LLC and changes no
//!   other engine state, so each `(key, op, LLC outcome)` goes through
//!   the engine's cost formula ([`KvEngine::quote_pair`]) once per walk.
//! * [`ledger`] — the paired walk's [`ChargeTape`]: one unperturbed
//!   `(own, alt)` charge pair per request, from which each lane's totals
//!   are folded, every split of the keys between the two tiers replays
//!   bit-identically, each lane's per-request samples are derived, and
//!   the exact per-key [`CostLedger`] is folded.
//! * [`tiered`] — the policy glue behind policy-placed servers: per-key
//!   trace stats and windows, the spilling initial load and the epoch
//!   re-planner with its migration-failure retries.
//! * [`cluster`] — the paper's two-instance deployment: a client-side
//!   key router over a FastMem-bound and a SlowMem-bound [`Server`].
//! * [`cache_mode`] — the front cache of a cache-mode [`Server`]
//!   ([`Server::build_cache_mode`]): FastMem as a write-back DRAM cache of
//!   SlowMem (Intel Memory Mode-style), the deployment the paper scopes
//!   out.
//!
//! # Example
//!
//! ```
//! use kvsim::{Server, StoreKind, Placement};
//! use ycsb::WorkloadSpec;
//!
//! let trace = WorkloadSpec::trending().scaled(200, 2_000).generate(1);
//! let mut server = Server::build(StoreKind::Redis, &trace, Placement::AllFast).unwrap();
//! let fast = server.run(&trace);
//! let mut server = Server::build(StoreKind::Redis, &trace, Placement::AllSlow).unwrap();
//! let slow = server.run(&trace);
//! assert!(fast.throughput_ops_s() > slow.throughput_ops_s());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache_mode;
pub mod cluster;
pub mod dynamo_like;
pub mod engine;
pub mod ledger;
pub mod memcached_like;
pub mod profile;
pub mod redis_like;
pub mod rocks_like;
pub mod server;
pub mod tiered;

pub use cache_mode::CacheModeStats;
pub use cluster::TwoInstanceCluster;
pub use engine::{EngineError, KvEngine, OpCharge};
pub use ledger::{ChargeTape, CostLedger, ReplayDecline};
pub use profile::{EngineProfile, StoreKind};
pub use server::{
    MigrationStats, OpHistograms, PairedDecline, PairedRun, Placement, RequestSample, RunReport,
    Server,
};
