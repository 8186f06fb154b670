//! The simulated memory system: an ordered stack of tiers behind an LLC.
//!
//! The paper's model is exactly two tiers (FastMem/SlowMem). A
//! [`TierStack`] is an *ordered list* of devices — DRAM + NVM +
//! SSD-backed swap, or any depth — each described by a [`TierDef`]
//! carrying Table-I-style timing plus a capacity and a $/GiB price.
//! Index 0 is the topmost (fastest) tier; indices grow downward toward
//! cheaper, slower devices. The paper's testbed is the two-tier case,
//! [`StackSpec::paper_testbed`].
//!
//! Every access is front-ended by the LLC model: bytes that hit in
//! cache are served at cache speed, bytes that miss at the owning
//! tier's [`Device`] speed. Objects get stable ids and per-tier
//! simulated addresses from the [`alloc`](crate::alloc) arenas.

use crate::alloc::{ObjectId, TierArena};
use crate::cache::{Cache, CacheConfig, CacheKind, CacheModel, CacheOutcome};
use crate::degrade::DegradationProfile;
use crate::device::{CapacityError, Device};
use crate::num;
use crate::spec::{AccessKind, TierId, TierSpec};
use crate::stats::AccessStats;
use crate::system::CacheStats;
use std::borrow::Cow;
use std::ops::{Add, Mul};
use std::sync::Arc;

/// Bytes per GiB, for price arithmetic.
const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Hard ceiling on hierarchy depth. Deep enough for any realistic
/// memory/storage pyramid while keeping [`TierId`]'s `u8` index roomy.
pub const MAX_TIERS: usize = 64;

/// One tier of an N-tier hierarchy: a name (referenced by fault plans
/// and figures), Table-I-style timing, a capacity, and a price.
#[derive(Debug, Clone, PartialEq)]
pub struct TierDef {
    /// Human-facing tier name (e.g. `"dram"`, `"optane"`, `"ssd"`).
    /// Matched case-insensitively by spec files and fault plans. Borrowed
    /// for the built-in presets, so building or cloning one allocates
    /// only the tier list.
    pub name: Cow<'static, str>,
    /// Timing model of the tier's device.
    pub spec: TierSpec,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Price in dollars per GiB (Table-I-style cost parameter; the
    /// cost-efficiency figures divide throughput by the hierarchy cost).
    pub price_per_gib: f64,
}

impl TierDef {
    /// Dollar cost of this tier's full capacity.
    pub fn cost_usd(&self) -> f64 {
        self.capacity_bytes as f64 / GIB * self.price_per_gib
    }
}

/// Ordered N-tier hierarchy specification, fastest tier first, plus the
/// shared last-level cache in front of all tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct StackSpec {
    /// The tiers, top (index 0, fastest) first.
    pub tiers: Vec<TierDef>,
    /// Last-level cache shared by every tier.
    pub cache: CacheConfig,
}

impl StackSpec {
    /// The paper's testbed: FastMem at index 0 and SlowMem at index 1
    /// (Table I timing), two 4 GiB nodes and a 12 MB shared LLC. Prices
    /// follow the paper's cost model where SlowMem costs a 0.2 fraction
    /// of FastMem per byte (DRAM at $6/GiB).
    pub fn paper_testbed() -> StackSpec {
        StackSpec {
            tiers: vec![
                TierDef {
                    name: "fastmem".into(),
                    spec: TierSpec::paper_fastmem(),
                    capacity_bytes: 4 << 30,
                    price_per_gib: 6.0,
                },
                TierDef {
                    name: "slowmem".into(),
                    spec: TierSpec::paper_slowmem(),
                    capacity_bytes: 4 << 30,
                    // Kept as the product (1.2000000000000002): the
                    // tier costs printed downstream derive from it.
                    price_per_gib: 6.0 * 0.2,
                },
            ],
            cache: CacheConfig::paper_llc(),
        }
    }

    /// Number of tiers.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// True when the stack has no tiers (always invalid).
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Tier ids in stack order, top first.
    pub fn ids(&self) -> impl Iterator<Item = TierId> + '_ {
        (0..self.tiers.len()).map(tier_id)
    }

    /// The definition of one tier, `None` for an out-of-range id.
    pub fn tier(&self, id: TierId) -> Option<&TierDef> {
        self.tiers.get(id.index())
    }

    /// Resolve a tier by case-insensitive name.
    pub fn tier_by_name(&self, name: &str) -> Option<TierId> {
        self.tiers
            .iter()
            .position(|t| t.name.eq_ignore_ascii_case(name))
            .map(tier_id)
    }

    /// Total capacity over all tiers.
    pub fn total_capacity(&self) -> u64 {
        self.tiers.iter().map(|t| t.capacity_bytes).sum()
    }

    /// Dollar cost of the whole hierarchy (sum over tiers, in stack
    /// order, so the float sum is deterministic).
    pub fn cost_usd(&self) -> f64 {
        let mut total = 0.0;
        for t in &self.tiers {
            total += t.cost_usd();
        }
        total
    }

    /// Check structural invariants: 1..=[`MAX_TIERS`] tiers, positive
    /// capacities, finite positive timing, non-empty case-insensitively
    /// unique names, finite non-negative prices, and a buildable LLC
    /// (errors about it start with `[cache]`).
    pub fn validate(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("hierarchy has no tiers".to_string());
        }
        if self.tiers.len() > MAX_TIERS {
            return Err(format!(
                "hierarchy has {} tiers; at most {MAX_TIERS} supported",
                self.tiers.len()
            ));
        }
        for (i, t) in self.tiers.iter().enumerate() {
            let name = t.name.trim();
            if name.is_empty() {
                return Err(format!("tier {i} has an empty name"));
            }
            if t.capacity_bytes == 0 {
                return Err(format!("tier '{}' has zero capacity", t.name));
            }
            if !(t.spec.read_latency_ns.is_finite() && t.spec.read_latency_ns > 0.0) {
                return Err(format!(
                    "tier '{}': read_latency_ns must be finite and positive",
                    t.name
                ));
            }
            if !(t.spec.bandwidth_bytes_per_ns.is_finite() && t.spec.bandwidth_bytes_per_ns > 0.0) {
                return Err(format!(
                    "tier '{}': bandwidth_bytes_per_ns must be finite and positive",
                    t.name
                ));
            }
            if !(t.spec.write_latency_factor.is_finite() && t.spec.write_latency_factor >= 0.0) {
                return Err(format!(
                    "tier '{}': write_latency_factor must be finite and >= 0",
                    t.name
                ));
            }
            if !(t.spec.write_overlap_factor.is_finite() && t.spec.write_overlap_factor > 0.0) {
                return Err(format!(
                    "tier '{}': write_overlap_factor must be finite and positive",
                    t.name
                ));
            }
            if !(t.price_per_gib.is_finite() && t.price_per_gib >= 0.0) {
                return Err(format!(
                    "tier '{}': price_per_gib must be finite and >= 0",
                    t.name
                ));
            }
            for other in &self.tiers[..i] {
                if other.name.eq_ignore_ascii_case(&t.name) {
                    return Err(format!("duplicate tier name '{}'", t.name));
                }
            }
        }
        validate_cache(&self.cache)
    }
}

/// The LLC checks of [`StackSpec::validate`]: the set-associative
/// geometry must be buildable (power-of-two lines, no more ways than
/// lines) and any real cache must have a finite, non-negative hit
/// latency and a finite, positive bandwidth.
fn validate_cache(cache: &CacheConfig) -> Result<(), String> {
    if cache.kind == CacheKind::None {
        return Ok(());
    }
    if cache.kind == CacheKind::SetAssociative {
        if !cache.line_bytes.is_power_of_two() {
            return Err(format!(
                "[cache] line_bytes must be a power of two (got {})",
                cache.line_bytes
            ));
        }
        let lines = (cache.capacity_bytes / cache.line_bytes).max(1);
        if cache.ways == 0 || num::u64_from_usize(cache.ways) > lines {
            return Err(format!(
                "[cache] ways must be at least 1 and at most the cache's {lines} lines (got {})",
                cache.ways
            ));
        }
    }
    if !(cache.hit_latency_ns.is_finite() && cache.hit_latency_ns >= 0.0) {
        return Err("[cache] hit_latency_ns must be finite and >= 0".to_string());
    }
    if !(cache.bandwidth_bytes_per_ns.is_finite() && cache.bandwidth_bytes_per_ns > 0.0) {
        return Err("[cache] bandwidth_bytes_per_ns must be finite and positive".to_string());
    }
    Ok(())
}

/// Build a [`TierId`] from a stack index bounded by [`MAX_TIERS`].
fn tier_id(index: usize) -> TierId {
    TierId(u8::try_from(index).unwrap_or(u8::MAX))
}

/// One charge priced in two tiers at once: `own` in the tier that holds
/// the data, `alt` as if the data lived in a second tier. Arithmetic is
/// lane by lane, so each lane is bit-identical to the same formula
/// evaluated on plain `f64`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairNs {
    /// Nanoseconds in the tier holding the data.
    pub own: f64,
    /// Nanoseconds had the data lived in the alternative tier.
    pub alt: f64,
}

impl From<f64> for PairNs {
    /// A tier-independent charge: the same in both lanes.
    fn from(ns: f64) -> PairNs {
        PairNs { own: ns, alt: ns }
    }
}

impl Add for PairNs {
    type Output = PairNs;
    fn add(self, rhs: PairNs) -> PairNs {
        PairNs {
            own: self.own + rhs.own,
            alt: self.alt + rhs.alt,
        }
    }
}

impl Mul<f64> for PairNs {
    type Output = PairNs;
    fn mul(self, k: f64) -> PairNs {
        PairNs {
            own: self.own * k,
            alt: self.alt * k,
        }
    }
}

/// How a memory charge is priced: the stack's charge primitives, with
/// the result type they produce. Engines write each cost formula once,
/// generic over the lanes, and get the plain run ([`OwnTier`], `f64`)
/// and the paired walk's quote ([`Quote`], [`PairNs`]) from the same
/// code.
pub trait ChargeLanes: Copy {
    /// The charge: `f64`, or one `f64` per lane.
    type Ns: Copy + Add<Output = Self::Ns> + Mul<f64, Output = Self::Ns> + From<f64>;

    /// [`TierStack::access_at`] in these lanes.
    fn access_at(
        self,
        mem: &mut TierStack,
        id: ObjectId,
        p: StackPlacement,
        kind: AccessKind,
    ) -> Self::Ns;

    /// [`TierStack::touch_n`] in these lanes.
    fn touch_n(
        self,
        mem: &mut TierStack,
        tier: TierId,
        kind: AccessKind,
        bytes: u64,
        n: u64,
    ) -> Self::Ns;
}

/// Price every charge in the tier that holds the data — the plain run.
#[derive(Debug, Clone, Copy)]
pub struct OwnTier;

impl ChargeLanes for OwnTier {
    type Ns = f64;

    fn access_at(
        self,
        mem: &mut TierStack,
        id: ObjectId,
        p: StackPlacement,
        kind: AccessKind,
    ) -> f64 {
        mem.access_at(id, p, kind)
    }

    fn touch_n(
        self,
        mem: &mut TierStack,
        tier: TierId,
        kind: AccessKind,
        bytes: u64,
        n: u64,
    ) -> f64 {
        mem.touch_n(tier, kind, bytes, n)
    }
}

/// Quote every charge, recording nothing, in the tier that holds the
/// data and as if it lived in tier `alt`, for an LLC outcome the caller
/// already probed ([`TierStack::probe_llc`]) — the paired walk's lanes.
/// The LLC is keyed by object, not by address, so its outcome is the
/// same in either tier. The own lane is the same float operations, in
/// the same order, as [`OwnTier`]'s charge on that outcome, so it is
/// bit-identical to what `access_at`/`touch_n` return.
#[derive(Debug, Clone, Copy)]
pub struct Quote {
    /// The LLC outcome of the one whole-object access a request makes.
    pub llc: CacheOutcome,
    /// The alternative tier; it must be a tier of the stack.
    pub alt: TierId,
}

impl ChargeLanes for Quote {
    type Ns = PairNs;

    fn access_at(
        self,
        mem: &mut TierStack,
        _id: ObjectId,
        p: StackPlacement,
        kind: AccessKind,
    ) -> PairNs {
        let mut ns = PairNs::from(mem.spec.cache.hit_ns(self.llc.hit_bytes));
        let miss_bytes = self.llc.miss_bytes;
        if miss_bytes > 0 {
            ns.own += mem.devices[p.tier.index()].quote_ns(kind, miss_bytes);
            ns.alt += mem.devices[self.alt.index()].quote_ns(kind, miss_bytes);
        }
        ns
    }

    fn touch_n(
        self,
        mem: &mut TierStack,
        tier: TierId,
        kind: AccessKind,
        bytes: u64,
        n: u64,
    ) -> PairNs {
        PairNs {
            own: mem.devices[tier.index()].quote_ns_n(kind, bytes, n),
            alt: mem.devices[self.alt.index()].quote_ns_n(kind, bytes, n),
        }
    }
}

/// Placement record of a live object in a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackPlacement {
    /// Tier currently holding the object.
    pub tier: TierId,
    /// Simulated start address within the tier's address window.
    pub addr: u64,
    /// Object size in bytes.
    pub bytes: u64,
}

/// Errors raised by [`TierStack`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StackError {
    /// The hierarchy specification failed validation.
    InvalidSpec(String),
    /// The target tier does not have room.
    OutOfMemory {
        /// Tier that was full.
        tier: TierId,
        /// The device-level capacity error that caused this.
        source: CapacityError,
    },
    /// The object id is unknown (double free, migrate after free, ...).
    UnknownObject(ObjectId),
    /// Zero-sized allocations carry no placement information.
    ZeroSize,
    /// The tier id is out of range for this stack.
    UnknownTier(TierId),
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackError::InvalidSpec(reason) => write!(f, "invalid hierarchy: {reason}"),
            StackError::OutOfMemory { tier, source } => write!(f, "{tier}: {source}"),
            StackError::UnknownObject(id) => write!(f, "unknown object {id}"),
            StackError::ZeroSize => write!(f, "zero-sized allocation"),
            StackError::UnknownTier(tier) => write!(f, "unknown tier {tier}"),
        }
    }
}

impl std::error::Error for StackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StackError::OutOfMemory { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A simulated N-tier memory system with an LLC in front.
///
/// All methods that model memory traffic return the simulated cost in
/// nanoseconds; callers (the KV engines) accumulate those into request
/// service times.
pub struct TierStack {
    spec: StackSpec,
    devices: Vec<Device>,
    /// Slot `i` holds the placement of `ObjectId(i)`; `None` once freed.
    slots: Vec<Option<StackPlacement>>,
    live: usize,
    arenas: Vec<TierArena>,
    cache: CacheModel,
    cache_stats: CacheStats,
    degradation: Option<Arc<DegradationProfile>>,
}

impl TierStack {
    /// Build a stack from a validated spec.
    pub fn new(spec: StackSpec) -> Result<TierStack, StackError> {
        spec.validate().map_err(StackError::InvalidSpec)?;
        let devices = spec
            .tiers
            .iter()
            .enumerate()
            .map(|(i, t)| Device::new(tier_id(i), t.spec, t.capacity_bytes))
            .collect();
        let arenas = spec.tiers.iter().map(|_| TierArena::default()).collect();
        let cache = spec.cache.build();
        Ok(TierStack {
            devices,
            slots: Vec::new(),
            live: 0,
            arenas,
            cache,
            cache_stats: CacheStats::default(),
            degradation: None,
            spec,
        })
    }

    /// The hierarchy specification.
    pub fn spec(&self) -> &StackSpec {
        &self.spec
    }

    /// Number of tiers.
    pub fn num_tiers(&self) -> usize {
        self.devices.len()
    }

    /// Tier ids in stack order, top first.
    pub fn tier_ids(&self) -> impl Iterator<Item = TierId> + '_ {
        self.spec.ids()
    }

    /// Name of a tier, or the numeric id's display form when out of
    /// range (only reachable with a foreign id).
    pub fn name(&self, tier: TierId) -> &str {
        self.spec
            .tier(tier)
            .map(|t| &*t.name)
            .unwrap_or("<unknown>")
    }

    fn check_tier(&self, tier: TierId) -> Result<usize, StackError> {
        let i = tier.index();
        if i < self.devices.len() {
            Ok(i)
        } else {
            Err(StackError::UnknownTier(tier))
        }
    }

    /// Install (or clear) a time-varying degradation profile on all
    /// devices (shared via `Arc`). Accesses and reservations consult it
    /// at the time last set via [`Self::set_now_ns`].
    pub fn set_degradation(&mut self, profile: Option<DegradationProfile>) {
        let shared = profile.map(Arc::new);
        for d in &mut self.devices {
            d.set_degradation(shared.clone());
        }
        self.degradation = shared;
    }

    /// The installed degradation profile, if any.
    pub fn degradation(&self) -> Option<&DegradationProfile> {
        self.degradation.as_deref()
    }

    /// Set the simulated time at which all devices evaluate their
    /// degradation profile. Drivers call this once per request with
    /// their `SimClock` reading; without a profile installed it is free
    /// of observable effect.
    pub fn set_now_ns(&mut self, now_ns: u128) {
        for d in &mut self.devices {
            d.set_now_ns(now_ns);
        }
    }

    /// Drop all cached state without touching device statistics — a cold
    /// restart after a crash, mid-measurement.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Allocate an object of `bytes` in `tier`.
    pub fn alloc(&mut self, bytes: u64, tier: TierId) -> Result<ObjectId, StackError> {
        let i = self.check_tier(tier)?;
        if bytes == 0 {
            return Err(StackError::ZeroSize);
        }
        self.devices[i]
            .reserve(bytes)
            .map_err(|source| StackError::OutOfMemory { tier, source })?;
        let id = ObjectId(num::u64_from_usize(self.slots.len()));
        let addr = self.arenas[i].alloc(bytes);
        self.slots.push(Some(StackPlacement { tier, addr, bytes }));
        self.live += 1;
        Ok(id)
    }

    /// Free an object.
    pub fn free(&mut self, id: ObjectId) -> Result<(), StackError> {
        let p = self
            .slots
            .get_mut(num::usize_from_u64(id.0))
            .and_then(|slot| slot.take())
            .ok_or(StackError::UnknownObject(id))?;
        self.live -= 1;
        let i = p.tier.index();
        self.arenas[i].dealloc(p.addr, p.bytes);
        self.devices[i].release(p.bytes);
        self.cache.invalidate(id.0);
        Ok(())
    }

    /// Migrate an object to `target`, returning the simulated cost of
    /// the copy (read from source + write to destination); a no-op
    /// migration costs nothing. A full target leaves the object where
    /// it was.
    pub fn migrate(&mut self, id: ObjectId, target: TierId) -> Result<f64, StackError> {
        let ti = self.check_tier(target)?;
        let old = self.placement(id)?;
        if old.tier == target {
            return Ok(0.0);
        }
        self.devices[ti]
            .reserve(old.bytes)
            .map_err(|source| StackError::OutOfMemory {
                tier: target,
                source,
            })?;
        let oi = old.tier.index();
        self.arenas[oi].dealloc(old.addr, old.bytes);
        let addr = self.arenas[ti].alloc(old.bytes);
        if let Some(slot) = self.slots.get_mut(num::usize_from_u64(id.0)) {
            *slot = Some(StackPlacement {
                tier: target,
                addr,
                bytes: old.bytes,
            });
        }
        self.devices[oi].release(old.bytes);
        self.cache.invalidate(id.0);
        let read = self.devices[oi].access_ns(AccessKind::Read, old.bytes);
        let write = self.devices[ti].access_ns(AccessKind::Write, old.bytes);
        Ok(read + write)
    }

    /// Current placement of an object.
    pub fn placement(&self, id: ObjectId) -> Result<StackPlacement, StackError> {
        match self.slots.get(num::usize_from_u64(id.0)) {
            Some(&Some(p)) => Ok(p),
            _ => Err(StackError::UnknownObject(id)),
        }
    }

    /// Access the whole object; returns simulated nanoseconds (zero for
    /// an unknown object).
    pub fn access(&mut self, id: ObjectId, kind: AccessKind) -> f64 {
        match self.placement(id) {
            Ok(p) => self.access_at(id, p, kind),
            Err(_) => 0.0,
        }
    }

    /// Access the whole object through a placement the caller already
    /// resolved via [`Self::placement`], skipping the second table probe
    /// on the request hot path. The placement must be current — callers
    /// use it immediately after the lookup, before any migrate or free.
    pub fn access_at(&mut self, id: ObjectId, p: StackPlacement, kind: AccessKind) -> f64 {
        let (mut ns, miss_bytes) = self.probe_cache(id, p.bytes);
        if miss_bytes > 0 {
            ns += self.devices[p.tier.index()].access_ns(kind, miss_bytes);
        }
        ns
    }

    /// One LLC access over an object of `bytes`: the cache's residency
    /// moves as [`Self::access_at`]'s would, but nothing is recorded —
    /// no cache statistics, no device traffic. The paired walk's probe;
    /// it prices the outcome in a [`Quote`] lane.
    pub fn probe_llc(&mut self, id: ObjectId, bytes: u64) -> CacheOutcome {
        self.cache.access(id.0, bytes)
    }

    /// One LLC access over an object of `bytes`, counted in the cache
    /// stats: the cache-side nanoseconds and the bytes that missed.
    fn probe_cache(&mut self, id: ObjectId, bytes: u64) -> (f64, u64) {
        let outcome = self.probe_llc(id, bytes);
        if outcome.hit_bytes > 0 {
            self.cache_stats.hits += 1;
            self.cache_stats.hit_bytes += outcome.hit_bytes;
        }
        if outcome.miss_bytes > 0 {
            self.cache_stats.misses += 1;
            self.cache_stats.miss_bytes += outcome.miss_bytes;
        }
        (
            self.spec.cache.hit_ns(outcome.hit_bytes),
            outcome.miss_bytes,
        )
    }

    /// `n` identical raw, uncached device accesses of `bytes` in `tier`
    /// — pointer-chasing engine metadata that lives alongside the data
    /// but is not tracked as an object (dict entries, slab headers, ...),
    /// or an uncached pass over a value. The charge is resolved once and
    /// accumulated, so the returned total and the device stats are
    /// bit-identical to `n` separate single accesses — this is how
    /// engines batch their pointer-chase chains.
    pub fn touch_n(&mut self, tier: TierId, kind: AccessKind, bytes: u64, n: u64) -> f64 {
        self.devices[tier.index()].access_ns_n(kind, bytes, n)
    }

    /// Device statistics for one tier (the top tier for a foreign id —
    /// unreachable through this stack's own ids).
    pub fn tier_stats(&self, tier: TierId) -> &AccessStats {
        self.devices
            .get(tier.index())
            .unwrap_or(&self.devices[0])
            .stats()
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Used bytes in a tier (zero for an out-of-range id).
    pub fn used(&self, tier: TierId) -> u64 {
        self.devices.get(tier.index()).map_or(0, Device::used)
    }

    /// Nominal capacity of a tier.
    pub fn capacity(&self, tier: TierId) -> u64 {
        self.devices.get(tier.index()).map_or(0, Device::capacity)
    }

    /// Capacity of a tier usable right now (nominal minus any active
    /// degradation shrink).
    pub fn effective_capacity(&self, tier: TierId) -> u64 {
        self.devices
            .get(tier.index())
            .map_or(0, Device::effective_capacity)
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.live
    }

    /// Live bytes per tier according to the object table.
    pub fn object_bytes_in(&self, tier: TierId) -> u64 {
        self.slots
            .iter()
            .flatten()
            .filter(|p| p.tier == tier)
            .map(|p| p.bytes)
            .sum()
    }

    /// Iterate over live objects and their placements in id order.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, StackPlacement)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|p| (ObjectId(num::u64_from_usize(i)), p)))
    }

    /// Reset access statistics and drop all cached state — the moment
    /// "between runs" in the paper's methodology.
    pub fn reset_measurement_state(&mut self) {
        for d in &mut self.devices {
            d.reset_stats();
        }
        self.cache.clear();
        self.cache_stats = CacheStats::default();
    }
}

impl std::fmt::Debug for TierStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let used: Vec<u64> = self.devices.iter().map(Device::used).collect();
        f.debug_struct("TierStack")
            .field("tiers", &self.devices.len())
            .field("used", &used)
            .field("objects", &self.live)
            .field("cache_stats", &self.cache_stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_tier() -> StackSpec {
        StackSpec {
            tiers: vec![
                TierDef {
                    name: "dram".into(),
                    spec: TierSpec::paper_fastmem(),
                    capacity_bytes: 1 << 20,
                    price_per_gib: 6.0,
                },
                TierDef {
                    name: "optane".into(),
                    spec: TierSpec::optane_dc(),
                    capacity_bytes: 4 << 20,
                    price_per_gib: 2.0,
                },
                TierDef {
                    name: "ssd".into(),
                    spec: TierSpec {
                        read_latency_ns: 10_000.0,
                        bandwidth_bytes_per_ns: 3.2,
                        write_latency_factor: 0.5,
                        write_overlap_factor: 1.0,
                    },
                    capacity_bytes: 32 << 20,
                    price_per_gib: 0.1,
                },
            ],
            cache: CacheConfig::disabled(),
        }
    }

    #[test]
    fn validate_catches_bad_specs() {
        let mut s = three_tier();
        assert!(s.validate().is_ok());
        s.tiers[1].name = "DRAM".into();
        assert!(s.validate().unwrap_err().contains("duplicate"));
        let mut s = three_tier();
        s.tiers[2].capacity_bytes = 0;
        assert!(s.validate().unwrap_err().contains("zero capacity"));
        let mut s = three_tier();
        s.tiers.clear();
        assert!(s.validate().unwrap_err().contains("no tiers"));
        let mut s = three_tier();
        s.tiers[0].spec.bandwidth_bytes_per_ns = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn an_unbuildable_cache_is_an_invalid_spec_not_a_panic() {
        let mut s = three_tier();
        s.cache = CacheConfig {
            line_bytes: 48,
            ..CacheConfig::line_granular()
        };
        match TierStack::new(s) {
            Err(StackError::InvalidSpec(reason)) => {
                assert!(reason.starts_with("[cache] line_bytes"), "{reason}")
            }
            other => panic!("expected InvalidSpec, got {:?}", other.err()),
        }
        // The geometry only matters to the set-associative model.
        let mut s = three_tier();
        s.cache.ways = 0;
        assert!(s.validate().is_ok());
    }

    #[test]
    fn name_resolution_is_case_insensitive() {
        let s = three_tier();
        assert_eq!(s.tier_by_name("DRAM"), Some(TierId(0)));
        assert_eq!(s.tier_by_name("Optane"), Some(TierId(1)));
        assert_eq!(s.tier_by_name("ssd"), Some(TierId(2)));
        assert_eq!(s.tier_by_name("tape"), None);
    }

    #[test]
    fn hierarchy_cost_sums_tiers() {
        let s = three_tier();
        let expect = (1.0 / 1024.0) * 6.0 + (4.0 / 1024.0) * 2.0 + (32.0 / 1024.0) * 0.1;
        assert!((s.cost_usd() - expect).abs() < 1e-12);
    }

    #[test]
    fn alloc_access_migrate_across_three_tiers() {
        let mut stack = TierStack::new(three_tier()).unwrap();
        let id = stack.alloc(100_000, TierId(0)).unwrap();
        let t0 = stack.access(id, AccessKind::Read);
        stack.migrate(id, TierId(1)).unwrap();
        let t1 = stack.access(id, AccessKind::Read);
        stack.migrate(id, TierId(2)).unwrap();
        let t2 = stack.access(id, AccessKind::Read);
        assert!(t0 < t1 && t1 < t2, "{t0} {t1} {t2}");
        assert_eq!(stack.used(TierId(2)), 100_000);
        assert_eq!(stack.used(TierId(0)), 0);
        assert_eq!(stack.object_bytes_in(TierId(2)), 100_000);
    }

    #[test]
    fn unknown_tier_is_an_error_not_a_panic() {
        let mut stack = TierStack::new(three_tier()).unwrap();
        assert_eq!(
            stack.alloc(10, TierId(3)).unwrap_err(),
            StackError::UnknownTier(TierId(3))
        );
        let id = stack.alloc(10, TierId(0)).unwrap();
        assert_eq!(
            stack.migrate(id, TierId(9)).unwrap_err(),
            StackError::UnknownTier(TierId(9))
        );
    }

    #[test]
    fn capacity_is_enforced_per_tier() {
        let mut stack = TierStack::new(three_tier()).unwrap();
        stack.alloc(1 << 20, TierId(0)).unwrap();
        let err = stack.alloc(1, TierId(0)).unwrap_err();
        assert!(matches!(
            err,
            StackError::OutOfMemory {
                tier: TierId(0),
                ..
            }
        ));
        stack.alloc(1, TierId(1)).unwrap();
    }

    #[test]
    fn degradation_applies_per_tier_id() {
        use crate::degrade::{DegradationProfile, DegradationWindow};
        let mut stack = TierStack::new(three_tier()).unwrap();
        let id = stack.alloc(100_000, TierId(1)).unwrap();
        let nominal = stack.access(id, AccessKind::Read);
        stack.set_degradation(Some(DegradationProfile::new().with(DegradationWindow {
            latency_mult: 4.0,
            bandwidth_mult: 0.25,
            ..DegradationWindow::nominal(TierId(1), 1_000, 2_000)
        })));
        stack.set_now_ns(1_500);
        let degraded = stack.access(id, AccessKind::Read);
        assert!(degraded > 3.0 * nominal, "{degraded} vs {nominal}");
        // A different tier in the same window is untouched.
        let other = stack.alloc(100_000, TierId(2)).unwrap();
        let before = {
            stack.set_now_ns(5_000);
            stack.access(other, AccessKind::Read)
        };
        stack.set_now_ns(1_500);
        assert_eq!(stack.access(other, AccessKind::Read), before);
    }

    #[test]
    fn reset_measurement_state_clears_everything() {
        let mut stack = TierStack::new(three_tier()).unwrap();
        let id = stack.alloc(4096, TierId(0)).unwrap();
        stack.access(id, AccessKind::Read);
        stack.reset_measurement_state();
        assert_eq!(stack.tier_stats(TierId(0)).reads, 0);
        assert_eq!(stack.cache_stats(), CacheStats::default());
    }
}
