//! N-tier memory hierarchies with pluggable tiering policies.
//!
//! The Mnemo paper evaluates a two-tier DRAM/NVM testbed; this crate
//! generalizes the reproduction to *N*-tier hierarchies (DRAM + NVM +
//! SSD-swap, any depth) built on [`hybridmem::TierStack`]:
//!
//! * [`density`] — MnemoT's density rule, once: the densest-first order
//!   and budget fill the core crate's tiering, knapsack and multi-tenant
//!   allocator share with the policies here;
//! * [`hierarchy`] — named presets (`paper_two_tier`, the paper's
//!   testbed, and [`hierarchy::dram_optane_ssd`]) and a TOML-subset
//!   hierarchy spec file format with line-numbered errors;
//! * [`policy`] — the [`TieringPolicy`] trait (initial placement,
//!   access observation, epoch re-planning) and its catalog: the
//!   paper's greedy hotness ranking (bit-identical to the two-tier
//!   Pattern Engine at N=2: both rank through [`density::order`]),
//!   LRU-style recency, write-asymmetry-aware mapping, random/oracle
//!   baselines, and the decayed-density migrating tierer Mnemo is
//!   compared against.
//!
//! The `kvsim` crate drives these policies against simulated key-value
//! servers; the `tier_matrix` bench sweeps the full policy × hierarchy
//! grid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
pub mod hierarchy;
pub mod policy;

pub use hierarchy::{
    dram_optane_ssd, load_hierarchy, parse_hierarchy, preset, HierarchyLoadError, SpecError,
    PRESETS,
};
pub use policy::{
    AsymPolicy, DecayPolicy, GreedyPolicy, KeyStat, LruPolicy, OraclePolicy, PolicyKind,
    RandomPolicy, TieringPolicy,
};
