//! Pluggable tiering policies over an N-tier hierarchy.
//!
//! A [`TieringPolicy`] decides where keys live in a [`StackSpec`]: an
//! initial placement before the run ([`TieringPolicy::place`]), an
//! access-stream observer ([`TieringPolicy::on_access`]) and an epoch
//! re-planning hook ([`TieringPolicy::on_epoch`]) whose desired
//! assignments the server turns into charged migrations.
//!
//! The catalog:
//!
//! * [`GreedyPolicy`] — the paper's hotness ranking (`accesses / size`,
//!   §V-B), the two-tier Pattern Engine's [`density::order`], so the
//!   legacy golden figures stay byte-stable at N=2;
//! * [`LruPolicy`] — recency ranking: each epoch refills the stack with
//!   the most recently touched keys on top;
//! * [`AsymPolicy`] — write-asymmetry-aware mapping in the spirit of
//!   Song et al.: write-hot keys fill the write-cheapest tiers first,
//!   read-hot keys fill the read-cheapest;
//! * [`RandomPolicy`] — seeded capacity-weighted random placement (the
//!   "no intelligence" floor);
//! * [`OraclePolicy`] — placement from pre-loaded *future* per-epoch
//!   stats (the clairvoyant ceiling);
//! * [`DecayPolicy`] — the migrating tierer of the paper's Fig. 2b
//!   class: decayed access density with a residency bonus, refilling a
//!   FastMem byte budget every epoch.
//!
//! All policies are deterministic: orderings break ties by key id and
//! randomness is a pure function of the seed and key.

use crate::density;
use hybridmem::stack::StackSpec;
use hybridmem::{AccessKind, DetHashMap, TierId};

/// Per-key workload statistics a policy plans from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyStat {
    /// Key id.
    pub key: u64,
    /// Logical value size in bytes.
    pub bytes: u64,
    /// Read count in the window described by this stat.
    pub reads: u64,
    /// Write count in the window described by this stat.
    pub writes: u64,
}

impl KeyStat {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A tier-placement policy.
///
/// `place` and `on_epoch` return one assignment per entry of `stats`, in
/// the same order. Policies must respect tier capacities against the
/// *logical* byte sizes in `stats` (engines add allocator headers on
/// top, so capacity planning leaves that headroom to the caller).
pub trait TieringPolicy: Send {
    /// Stable policy name (CSV column, CLI flag value).
    fn name(&self) -> &'static str;

    /// Initial placement for the whole dataset, before the run starts.
    fn place(&mut self, stats: &[KeyStat], hier: &StackSpec) -> Vec<TierId>;

    /// Observe one request of the running trace. `seq` is the 0-based
    /// request index — the policy's only clock.
    fn on_access(&mut self, key: u64, kind: AccessKind, seq: u64) {
        let _ = (key, kind, seq);
    }

    /// Re-plan at an epoch boundary: desired `(key, tier)` assignments.
    /// The server diffs them against current placements and charges a
    /// migration for every difference. `stats` describes the epoch that
    /// just ended; `current` holds each key's tier right now (one entry
    /// per `stats` entry), after any earlier move that failed. The
    /// default keeps the current placement.
    fn on_epoch(
        &mut self,
        stats: &[KeyStat],
        current: &[TierId],
        hier: &StackSpec,
    ) -> Vec<(u64, TierId)> {
        let _ = (stats, current, hier);
        Vec::new()
    }
}

/// Build a [`TierId`] from a stack index (stacks are bounded well below
/// `u8::MAX` tiers).
fn tier_id(index: usize) -> TierId {
    TierId(u8::try_from(index).unwrap_or(u8::MAX))
}

/// Fill tiers in `tier_order` with keys in `key_order` (indices into
/// `stats`), skip-but-continue per tier exactly like the two-tier
/// Pattern Engine's `fill_capacity`: a key that no longer fits is
/// skipped, later smaller keys may still be packed. Keys left over after
/// every listed tier go to the tier with the most remaining free bytes
/// (ties to the topmost), matching the legacy "everything else lands in
/// SlowMem" behaviour whenever the last tier has room, so every key of
/// `key_order` ends up assigned.
///
/// This walk stays apart from [`density::fill`]: its key and tier orders
/// are arbitrary (LRU recency, asym's per-kind tier costs), not one
/// density order into one budget.
fn fill(
    stats: &[KeyStat],
    key_order: &[usize],
    tier_order: &[usize],
    free: &mut [u64],
    out: &mut [Option<TierId>],
) {
    for &ti in tier_order {
        for &ki in key_order {
            if out[ki].is_some() {
                continue;
            }
            let bytes = stats[ki].bytes;
            if bytes <= free[ti] {
                free[ti] -= bytes;
                out[ki] = Some(tier_id(ti));
            }
        }
    }
    for &ki in key_order {
        if out[ki].is_none() {
            let mut best = 0usize;
            for (ti, &f) in free.iter().enumerate() {
                if f > free[best] {
                    best = ti;
                }
            }
            free[best] = free[best].saturating_sub(stats[ki].bytes);
            out[ki] = Some(tier_id(best));
        }
    }
}

/// Greedy fill in `key_order` through the stack top-down.
fn fill_stack_order(stats: &[KeyStat], key_order: &[usize], hier: &StackSpec) -> Vec<TierId> {
    let mut free: Vec<u64> = hier.tiers.iter().map(|t| t.capacity_bytes).collect();
    let tier_order: Vec<usize> = (0..hier.len()).collect();
    let mut out = vec![None; stats.len()];
    fill(stats, key_order, &tier_order, &mut free, &mut out);
    out.into_iter().flatten().collect()
}

// --------------------------------------------------------------- greedy --

/// The paper's hotness-ranking policy generalized to N tiers: keys in
/// placement-weight order (`accesses / size`, descending, ties by key
/// id: [`density::order`], as `MnemoT::weight_order` ranks) fill the
/// stack top-down, skip-but-continue per tier. At N=2 this reproduces
/// `MnemoT::fill_capacity` exactly.
#[derive(Debug, Clone, Default)]
pub struct GreedyPolicy;

impl TieringPolicy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn place(&mut self, stats: &[KeyStat], hier: &StackSpec) -> Vec<TierId> {
        let weight = stats.iter().map(|s| (s.accesses() as f64, s.bytes, s.key));
        fill_stack_order(stats, &density::order(weight).collect::<Vec<_>>(), hier)
    }

    fn on_epoch(
        &mut self,
        stats: &[KeyStat],
        _current: &[TierId],
        hier: &StackSpec,
    ) -> Vec<(u64, TierId)> {
        let tiers = self.place(stats, hier);
        stats.iter().map(|s| s.key).zip(tiers).collect()
    }
}

// ----------------------------------------------------------------- lru --

/// Recency policy: the initial placement is a key-id-order fill (no
/// history yet); each epoch refills the stack with the most recently
/// accessed keys on top. Ties (equal recency, including never-accessed)
/// break by key id.
#[derive(Debug, Clone, Default)]
pub struct LruPolicy {
    /// key -> sequence number of its most recent access + 1 (0 = never).
    last_access: DetHashMap<u64, u64>,
}

impl TieringPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn place(&mut self, stats: &[KeyStat], hier: &StackSpec) -> Vec<TierId> {
        let order: Vec<usize> = (0..stats.len()).collect();
        fill_stack_order(stats, &order, hier)
    }

    fn on_access(&mut self, key: u64, _kind: AccessKind, seq: u64) {
        self.last_access.insert(key, seq + 1);
    }

    fn on_epoch(
        &mut self,
        stats: &[KeyStat],
        _current: &[TierId],
        hier: &StackSpec,
    ) -> Vec<(u64, TierId)> {
        let mut order: Vec<usize> = (0..stats.len()).collect();
        order.sort_by_key(|&i| {
            let recency = self.last_access.get(&stats[i].key).copied().unwrap_or(0);
            (std::cmp::Reverse(recency), stats[i].key)
        });
        let tiers = fill_stack_order(stats, &order, hier);
        stats.iter().map(|s| s.key).zip(tiers).collect()
    }
}

// ---------------------------------------------------------------- asym --

/// Reference transfer size for per-byte tier cost ranking: large enough
/// that bandwidth matters, small enough that latency still shows.
const ASYM_REF_BYTES: u64 = 4096;

/// Write-asymmetry-aware policy (after Song et al.'s asymmetry-aware
/// placement): write-hot keys (more writes than reads) are packed into
/// the tiers with the cheapest per-byte *writes* first, so NVM-style
/// devices with expensive writes hold read-mostly data; the remaining
/// keys fill the cheapest-*read* tiers. Within each pass keys are
/// ordered by the dominant-direction weight (`writes/size` resp.
/// `reads/size`).
#[derive(Debug, Clone, Default)]
pub struct AsymPolicy;

impl AsymPolicy {
    /// The write-hot keys (more writes than reads) or the rest, by
    /// descending dominant count per byte ([`density::order`]), ties by
    /// key id.
    fn dense_first(stats: &[KeyStat], write_hot: bool) -> Vec<usize> {
        let count = |s: &KeyStat| if write_hot { s.writes } else { s.reads };
        let kept: Vec<usize> = (0..stats.len())
            .filter(|&i| (stats[i].writes > stats[i].reads) == write_hot)
            .collect();
        let items = kept
            .iter()
            .map(|&i| (count(&stats[i]) as f64, stats[i].bytes, stats[i].key));
        density::order(items).map(|pos| kept[pos]).collect()
    }

    fn tier_order_by_cost(hier: &StackSpec, kind: AccessKind) -> Vec<usize> {
        let cost = |t: usize| hier.tiers[t].spec.access_ns(kind, ASYM_REF_BYTES);
        let mut order: Vec<usize> = (0..hier.len()).collect();
        order.sort_by(|&a, &b| cost(a).total_cmp(&cost(b)).then(a.cmp(&b)));
        order
    }
}

impl TieringPolicy for AsymPolicy {
    fn name(&self) -> &'static str {
        "asym"
    }

    fn place(&mut self, stats: &[KeyStat], hier: &StackSpec) -> Vec<TierId> {
        let mut free: Vec<u64> = hier.tiers.iter().map(|t| t.capacity_bytes).collect();
        let mut out = vec![None; stats.len()];

        let write_hot = Self::dense_first(stats, true);
        fill(
            stats,
            &write_hot,
            &Self::tier_order_by_cost(hier, AccessKind::Write),
            &mut free,
            &mut out,
        );
        let read_rest = Self::dense_first(stats, false);
        fill(
            stats,
            &read_rest,
            &Self::tier_order_by_cost(hier, AccessKind::Read),
            &mut free,
            &mut out,
        );
        out.into_iter().flatten().collect()
    }

    fn on_epoch(
        &mut self,
        stats: &[KeyStat],
        _current: &[TierId],
        hier: &StackSpec,
    ) -> Vec<(u64, TierId)> {
        let tiers = self.place(stats, hier);
        stats.iter().map(|s| s.key).zip(tiers).collect()
    }
}

// -------------------------------------------------------------- random --

/// SplitMix64 — a tiny, well-mixed pure hash (Vigna's reference
/// constants), used so random placement is a function of `(seed, key)`
/// alone and therefore byte-stable under any worker count.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Capacity-weighted random placement: each key draws a tier with
/// probability proportional to tier capacity; if the drawn tier is full
/// the walk continues down the stack cyclically. The "no intelligence"
/// baseline every real policy must beat.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    seed: u64,
}

impl RandomPolicy {
    /// Build with a placement seed.
    pub fn new(seed: u64) -> RandomPolicy {
        RandomPolicy { seed }
    }
}

impl TieringPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(&mut self, stats: &[KeyStat], hier: &StackSpec) -> Vec<TierId> {
        let mut free: Vec<u64> = hier.tiers.iter().map(|t| t.capacity_bytes).collect();
        let total: u128 = hier
            .tiers
            .iter()
            .map(|t| u128::from(t.capacity_bytes))
            .sum();
        let mut out = Vec::with_capacity(stats.len());
        for s in stats {
            let draw = u128::from(splitmix64(self.seed ^ s.key)) % total.max(1);
            let mut chosen = hier.len() - 1;
            let mut cumulative = 0u128;
            for (ti, t) in hier.tiers.iter().enumerate() {
                cumulative += u128::from(t.capacity_bytes);
                if draw < cumulative {
                    chosen = ti;
                    break;
                }
            }
            // Walk from the drawn tier until the key fits; fall back to
            // the drawn tier if the whole stack is full.
            let mut placed = chosen;
            for step in 0..hier.len() {
                let ti = (chosen + step) % hier.len();
                if s.bytes <= free[ti] {
                    placed = ti;
                    break;
                }
            }
            free[placed] = free[placed].saturating_sub(s.bytes);
            out.push(tier_id(placed));
        }
        out
    }
}

// -------------------------------------------------------------- oracle --

/// Clairvoyant policy: placements come from pre-loaded *future* window
/// stats (the stats of the epoch about to run, not the one that just
/// ended), greedily filled like [`GreedyPolicy`]. With a single window
/// covering the whole trace it coincides with greedy; with per-epoch
/// windows it is the ceiling online policies are measured against.
#[derive(Debug, Clone)]
pub struct OraclePolicy {
    windows: Vec<Vec<KeyStat>>,
    next: usize,
}

impl OraclePolicy {
    /// Build from future per-epoch stats windows, in epoch order. The
    /// first window informs the initial placement.
    pub fn new(windows: Vec<Vec<KeyStat>>) -> OraclePolicy {
        OraclePolicy { windows, next: 0 }
    }

    /// Greedy assignment from a window, mapped back onto `stats` order.
    fn assign(&self, window: &[KeyStat], stats: &[KeyStat], hier: &StackSpec) -> Vec<TierId> {
        // Future knowledge for keys present in the window; keys the
        // window never touches keep weight 0 (cold).
        let mut merged: Vec<KeyStat> = stats
            .iter()
            .map(|s| KeyStat {
                reads: 0,
                writes: 0,
                ..*s
            })
            .collect();
        let index: DetHashMap<u64, usize> =
            stats.iter().enumerate().map(|(i, s)| (s.key, i)).collect();
        for w in window {
            if let Some(&i) = index.get(&w.key) {
                merged[i].reads = w.reads;
                merged[i].writes = w.writes;
            }
        }
        GreedyPolicy.place(&merged, hier)
    }
}

impl TieringPolicy for OraclePolicy {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn place(&mut self, stats: &[KeyStat], hier: &StackSpec) -> Vec<TierId> {
        match self.windows.first() {
            Some(window) => {
                let out = self.assign(window, stats, hier);
                self.next = 1;
                out
            }
            None => GreedyPolicy.place(stats, hier),
        }
    }

    fn on_epoch(
        &mut self,
        stats: &[KeyStat],
        _current: &[TierId],
        hier: &StackSpec,
    ) -> Vec<(u64, TierId)> {
        let Some(window) = self.windows.get(self.next) else {
            return Vec::new();
        };
        let tiers = self.assign(window, stats, hier);
        self.next += 1;
        stats.iter().map(|s| s.key).zip(tiers).collect()
    }
}

// --------------------------------------------------------------- decay --

/// Per-epoch decay of the access scores: about three epochs of memory
/// (HeteroOS-style history smoothing).
const DECAY: f64 = 0.7;
/// Residency bonus: a key already on top keeps its slot unless a
/// challenger's density beats the resident's by this factor. Without
/// it, one-hit cold keys displace momentarily quiet hot keys every epoch
/// and the tierer thrashes.
const HYSTERESIS: f64 = 0.5;
/// Minimum decayed score a key below the top tier needs before it may
/// be promoted: the two-touch (2Q / second-chance) filter that keeps
/// one-hit wonders from evicting quiet residents.
const PROMOTION_THRESHOLD: f64 = 2.0;

/// The migrating tierer Mnemo is set against (paper Fig. 2b; X-Mem,
/// HeteroOS and Unimem migrate at runtime where Mnemo places once, §IV).
///
/// The dataset starts in the bottom tier: the tierer must discover the
/// hot set online. Every request adds one to its key's score; at each
/// epoch keys are ranked by score over logical size (the density rule
/// of MnemoT's weights), residents boosted by the hysteresis bonus, and
/// the top tier's byte budget is refilled in that order. Non-residents
/// below the promotion threshold are skipped. Keys leaving the top tier
/// go to the bottom one. Then every score decays.
#[derive(Debug, Clone)]
pub struct DecayPolicy {
    /// Logical bytes the top tier may hold.
    budget: u64,
    /// Decayed access score, indexed by key id, for the keys `place`
    /// saw.
    scores: Vec<f64>,
}

impl DecayPolicy {
    /// A tierer that may fill `budget` logical bytes of the top tier.
    pub fn new(budget: u64) -> DecayPolicy {
        DecayPolicy {
            budget,
            scores: Vec::new(),
        }
    }
}

impl TieringPolicy for DecayPolicy {
    fn name(&self) -> &'static str {
        "decay"
    }

    fn place(&mut self, stats: &[KeyStat], hier: &StackSpec) -> Vec<TierId> {
        self.scores = vec![0.0; stats.len()];
        vec![tier_id(hier.len().saturating_sub(1)); stats.len()]
    }

    fn on_access(&mut self, key: u64, _kind: AccessKind, _seq: u64) {
        let i = usize::try_from(key).unwrap_or(usize::MAX);
        if let Some(score) = self.scores.get_mut(i) {
            *score += 1.0;
        }
    }

    fn on_epoch(
        &mut self,
        stats: &[KeyStat],
        current: &[TierId],
        hier: &StackSpec,
    ) -> Vec<(u64, TierId)> {
        let top = tier_id(0);
        let bottom = tier_id(hier.len().saturating_sub(1));
        let score = |s: &KeyStat| {
            let i = usize::try_from(s.key).unwrap_or(usize::MAX);
            self.scores.get(i).copied().unwrap_or(0.0)
        };
        // Each density is already over its size: as a one-byte item it
        // ranks unchanged.
        let order = density::order(stats.iter().zip(current).map(|(s, &tier)| {
            let base = score(s) / s.bytes.max(1) as f64;
            let density = if tier == top {
                base * (1.0 + HYSTERESIS)
            } else {
                base
            };
            (density, 1, s.key)
        }));
        let n = order.len();
        let mut budget = self.budget;
        let mut want_top = vec![false; n];
        for i in order {
            let s = score(&stats[i]);
            if s <= 0.0 {
                break;
            }
            if current[i] != top && s < PROMOTION_THRESHOLD {
                continue;
            }
            if stats[i].bytes <= budget {
                budget -= stats[i].bytes;
                want_top[i] = true;
            }
        }
        // Demotions first, to free the room promotions need.
        let demote = (0..n).filter(|&i| current[i] == top && !want_top[i]);
        let promote = (0..n).filter(|&i| current[i] != top && want_top[i]);
        let moves = demote
            .map(|i| (stats[i].key, bottom))
            .chain(promote.map(|i| (stats[i].key, top)))
            .collect();
        for s in &mut self.scores {
            *s *= DECAY;
        }
        moves
    }
}

// ------------------------------------------------------------ registry --

/// The policy catalog, for CLI flags and bench sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`GreedyPolicy`].
    Greedy,
    /// [`LruPolicy`].
    Lru,
    /// [`AsymPolicy`].
    Asym,
    /// [`RandomPolicy`].
    Random,
    /// [`OraclePolicy`].
    Oracle,
}

impl PolicyKind {
    /// Every policy, in sweep (and CSV column) order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Greedy,
        PolicyKind::Lru,
        PolicyKind::Asym,
        PolicyKind::Random,
        PolicyKind::Oracle,
    ];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Greedy => "greedy",
            PolicyKind::Lru => "lru",
            PolicyKind::Asym => "asym",
            PolicyKind::Random => "random",
            PolicyKind::Oracle => "oracle",
        }
    }

    /// Resolve by name.
    pub fn by_name(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Instantiate. `seed` feeds [`RandomPolicy`]; `windows` pre-loads
    /// [`OraclePolicy`] with future per-epoch stats (an empty slice
    /// degrades the oracle to greedy).
    pub fn build(self, seed: u64, windows: &[Vec<KeyStat>]) -> Box<dyn TieringPolicy> {
        match self {
            PolicyKind::Greedy => Box::new(GreedyPolicy),
            PolicyKind::Lru => Box::new(LruPolicy::default()),
            PolicyKind::Asym => Box::new(AsymPolicy),
            PolicyKind::Random => Box::new(RandomPolicy::new(seed)),
            PolicyKind::Oracle => Box::new(OraclePolicy::new(windows.to_vec())),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::dram_optane_ssd;
    use hybridmem::stack::TierDef;
    use hybridmem::TierSpec;

    fn stat(key: u64, bytes: u64, reads: u64, writes: u64) -> KeyStat {
        KeyStat {
            key,
            bytes,
            reads,
            writes,
        }
    }

    fn stats(n: u64) -> Vec<KeyStat> {
        (0..n)
            .map(|key| KeyStat {
                key,
                bytes: 256 + (key * 131) % 4096,
                reads: (key * 7) % 50,
                writes: (key * 3) % 20,
            })
            .collect()
    }

    fn occupancy(stats: &[KeyStat], tiers: &[TierId], hier: &StackSpec) -> Vec<u64> {
        let mut used = vec![0u64; hier.len()];
        for (s, t) in stats.iter().zip(tiers) {
            used[t.index()] += s.bytes;
        }
        used
    }

    /// A tight hierarchy (tiers smaller than the dataset) forcing real
    /// placement decisions; the last tier absorbs the remainder.
    fn tight_three_tier(total_bytes: u64) -> StackSpec {
        let mut spec = dram_optane_ssd();
        spec.tiers[0].capacity_bytes = total_bytes / 4;
        spec.tiers[1].capacity_bytes = total_bytes / 3;
        spec.tiers[2].capacity_bytes = total_bytes + 4096;
        spec
    }

    #[test]
    fn greedy_matches_two_tier_pattern_engine_semantics() {
        // Crafted stats mirroring `weight_order_on_crafted_trace` in the
        // core crate: the expected order is 1, 2, 0, 3.
        let stats = vec![
            stat(0, 1000, 2, 0),
            stat(1, 100, 2, 0),
            stat(2, 100, 1, 0),
            stat(3, 100, 0, 0),
        ];
        let weight = stats.iter().map(|s| (s.accesses() as f64, s.bytes, s.key));
        assert_eq!(density::order(weight).collect::<Vec<_>>(), vec![1, 2, 0, 3]);
        // FastMem of 200 bytes takes keys 1 and 2; the rest go below.
        let mut hier = StackSpec::paper_testbed();
        hier.tiers[0].capacity_bytes = 200;
        let placed = GreedyPolicy.place(&stats, &hier);
        assert_eq!(
            placed,
            vec![TierId::SLOW, TierId::FAST, TierId::FAST, TierId::SLOW]
        );
    }

    #[test]
    fn greedy_skip_but_continue_packs_later_smaller_keys() {
        let stats = vec![
            stat(0, 300, 90, 0),
            stat(1, 300, 60, 0),
            stat(2, 100, 10, 0),
        ];
        let mut hier = StackSpec::paper_testbed();
        hier.tiers[0].capacity_bytes = 400;
        // Key 1 (weight 0.2) does not fit after key 0 (300 bytes used),
        // but key 2 (weight 0.1, 100 bytes) still does.
        let placed = GreedyPolicy.place(&stats, &hier);
        assert_eq!(placed, vec![TierId::FAST, TierId::SLOW, TierId::FAST]);
    }

    #[test]
    fn every_policy_respects_capacity_on_a_tight_hierarchy() {
        let stats = stats(400);
        let total: u64 = stats.iter().map(|s| s.bytes).sum();
        let hier = tight_three_tier(total);
        for kind in PolicyKind::ALL {
            let mut policy = kind.build(11, &[]);
            let placed = policy.place(&stats, &hier);
            assert_eq!(placed.len(), stats.len(), "{kind}");
            let used = occupancy(&stats, &placed, &hier);
            for (ti, (&u, t)) in used.iter().zip(&hier.tiers).enumerate() {
                assert!(
                    u <= t.capacity_bytes,
                    "{kind}: tier {ti} holds {u} of {}",
                    t.capacity_bytes
                );
            }
        }
    }

    #[test]
    fn asym_pins_write_hot_keys_to_the_write_cheap_tier() {
        // Two tiers: "wcheap" has slow reads but overlapped cheap
        // writes; "rcheap" is a fast reader with terribly slow writes.
        let hier = StackSpec {
            tiers: vec![
                TierDef {
                    name: "rcheap".into(),
                    spec: TierSpec {
                        read_latency_ns: 50.0,
                        bandwidth_bytes_per_ns: 15.0,
                        write_latency_factor: 8.0,
                        write_overlap_factor: 0.05,
                    },
                    capacity_bytes: 1 << 20,
                    price_per_gib: 6.0,
                },
                TierDef {
                    name: "wcheap".into(),
                    spec: TierSpec {
                        read_latency_ns: 400.0,
                        bandwidth_bytes_per_ns: 2.0,
                        write_latency_factor: 0.1,
                        write_overlap_factor: 4.0,
                    },
                    capacity_bytes: 1 << 20,
                    price_per_gib: 1.0,
                },
            ],
            cache: hybridmem::CacheConfig::disabled(),
        };
        let stats = vec![stat(0, 1000, 90, 1), stat(1, 1000, 1, 90)];
        let placed = AsymPolicy.place(&stats, &hier);
        assert_eq!(placed[0], TierId(0), "read-hot key on the read-cheap tier");
        assert_eq!(
            placed[1],
            TierId(1),
            "write-hot key on the write-cheap tier"
        );
    }

    #[test]
    fn lru_promotes_recently_touched_keys_at_epochs() {
        // Uniform sizes so the fill order alone decides the top tier.
        let stats: Vec<KeyStat> = (0..50).map(|key| stat(key, 1000, 0, 0)).collect();
        let mut hier = dram_optane_ssd();
        hier.tiers[0].capacity_bytes = 5_000; // exactly five keys
        hier.tiers[1].capacity_bytes = 10_000;
        hier.tiers[2].capacity_bytes = 60_000;
        let mut lru = LruPolicy::default();
        lru.place(&stats, &hier);
        // Touch keys 40..50 in order: 49 is the most recent.
        for (seq, key) in (40..50).enumerate() {
            lru.on_access(key, AccessKind::Read, seq as u64);
        }
        let current = vec![TierId(2); stats.len()];
        let assign = lru.on_epoch(&stats, &current, &hier);
        let mut top: Vec<u64> = assign
            .iter()
            .filter(|(_, t)| *t == TierId(0))
            .map(|(k, _)| *k)
            .collect();
        top.sort_unstable();
        assert_eq!(top, vec![45, 46, 47, 48, 49]);
    }

    #[test]
    fn random_is_seed_stable_and_seed_sensitive() {
        let stats = stats(200);
        let hier = dram_optane_ssd();
        let a = RandomPolicy::new(7).place(&stats, &hier);
        let b = RandomPolicy::new(7).place(&stats, &hier);
        let c = RandomPolicy::new(8).place(&stats, &hier);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Capacity weighting: the big bottom tier receives the most keys.
        let counts = occupancy(&stats, &a, &hier);
        assert!(counts[2] > counts[0]);
    }

    #[test]
    fn oracle_with_whole_trace_window_equals_greedy() {
        let stats = stats(120);
        let total: u64 = stats.iter().map(|s| s.bytes).sum();
        let hier = tight_three_tier(total);
        let greedy = GreedyPolicy.place(&stats, &hier);
        let oracle = OraclePolicy::new(vec![stats.clone()]).place(&stats, &hier);
        assert_eq!(greedy, oracle);
    }

    #[test]
    fn oracle_follows_future_windows() {
        let stats = vec![stat(0, 100, 0, 0), stat(1, 100, 0, 0)];
        let mut hier = StackSpec::paper_testbed();
        hier.tiers[0].capacity_bytes = 100;
        // Epoch 0 is hot on key 0; epoch 1 flips to key 1.
        let w0 = vec![stat(0, 100, 10, 0)];
        let w1 = vec![stat(1, 100, 10, 0)];
        let mut oracle = OraclePolicy::new(vec![w0, w1]);
        let first = oracle.place(&stats, &hier);
        assert_eq!(first, vec![TierId::FAST, TierId::SLOW]);
        let second = oracle.on_epoch(&stats, &first, &hier);
        assert_eq!(second, vec![(0, TierId::SLOW), (1, TierId::FAST)]);
        // Windows exhausted: no further moves.
        assert!(oracle.on_epoch(&stats, &first, &hier).is_empty());
    }

    #[test]
    fn decay_filters_one_hit_keys_and_damps_residents() {
        let stats = vec![stat(0, 100, 0, 0), stat(1, 100, 0, 0), stat(2, 10, 0, 0)];
        let hier = StackSpec::paper_testbed();
        let mut decay = DecayPolicy::new(100);
        let mut current = decay.place(&stats, &hier);
        assert_eq!(current, vec![TierId::SLOW; 3], "the tierer starts cold");
        let mut epoch = |touches: &[u64], current: &mut Vec<TierId>| {
            for &key in touches {
                decay.on_access(key, AccessKind::Read, 0);
            }
            let moves = decay.on_epoch(&stats, current, &hier);
            for &(key, tier) in &moves {
                current[key as usize] = tier;
            }
            moves
        };
        // Key 2 is the densest but touched once: the two-touch filter
        // keeps it out and key 0 takes the one slot.
        let first = epoch(&[0, 0, 0, 0, 2], &mut current);
        assert_eq!(first, vec![(0, TierId::FAST)]);
        // Key 1 (score 4) beats resident key 0 (4 x 0.7 = 2.8) on raw
        // density, but not the resident's 1.5x bonus (4.2).
        assert!(epoch(&[1, 1, 1, 1], &mut current).is_empty());
        // One more touch (2.8 + 1 = 3.8 against 1.96 x 1.5 = 2.94) swaps
        // them: the demotion comes first.
        let third = epoch(&[1], &mut current);
        assert_eq!(third, vec![(0, TierId::SLOW), (1, TierId::FAST)]);
    }

    #[test]
    fn registry_round_trips() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::by_name(kind.name()), Some(kind));
            assert_eq!(kind.build(0, &[]).name(), kind.name());
        }
        assert_eq!(PolicyKind::by_name("clairvoyant"), None);
    }
}
