//! The fault plan: seeded, sim-clock-scheduled fault events.

use crate::backoff::Backoff;
use hybridmem::degrade::{DegradationProfile, DegradationWindow};
use hybridmem::TierId;

/// One scheduled fault. Time windows are half-open `[start_ns, end_ns)`
/// in simulated nanoseconds; `end_ns = u128::MAX` means "until the end of
/// the run".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The tier's access latency is multiplied by `factor` (>= 1) while
    /// the window is active.
    LatencySpike {
        /// Degraded tier (stack index; the paper's tiers are
        /// [`TierId::FAST`] and [`TierId::SLOW`]).
        tier: TierId,
        /// Window start (inclusive).
        start_ns: u128,
        /// Window end (exclusive).
        end_ns: u128,
        /// Latency multiplier.
        factor: f64,
    },
    /// The tier's bandwidth is reduced to `factor` (in `(0, 1]`) of
    /// nominal while the window is active.
    BandwidthThrottle {
        /// Degraded tier.
        tier: TierId,
        /// Window start (inclusive).
        start_ns: u128,
        /// Window end (exclusive).
        end_ns: u128,
        /// Remaining bandwidth fraction.
        factor: f64,
    },
    /// The tier loses `bytes` of usable capacity while the window is
    /// active (wear-out or reservation loss). Existing reservations are
    /// kept; new ones see the reduced ceiling.
    CapacityShrink {
        /// Degraded tier.
        tier: TierId,
        /// Window start (inclusive).
        start_ns: u128,
        /// Window end (exclusive).
        end_ns: u128,
        /// Bytes removed from capacity.
        bytes: u64,
    },
    /// Migrations attempted inside the window fail with the given
    /// probability (seeded per `(plan seed, key, attempt)`, so the same
    /// plan fails the same migrations on every run and worker count).
    MigrationFailure {
        /// Window start (inclusive).
        start_ns: u128,
        /// Window end (exclusive).
        end_ns: u128,
        /// Failure probability in `[0, 1]`.
        probability: f64,
    },
    /// Shard `shard` crashes the first time its clock reaches `at_ns`:
    /// the run charges a fixed restart plus a per-key rebuild cost, and
    /// the shard restarts with a cold cache.
    ShardCrash {
        /// Crashing shard index.
        shard: usize,
        /// Simulated time of the crash.
        at_ns: u128,
        /// Fixed restart cost in simulated nanoseconds.
        restart_ns: f64,
        /// Rebuild cost per loaded key in simulated nanoseconds.
        rebuild_ns_per_key: f64,
    },
    /// Storage fault: a crash inside the window models power loss — only
    /// a seeded prefix of the bytes written since the last successful
    /// fsync survives (the journal tail is torn mid-frame).
    TornWrite {
        /// Window start (inclusive).
        start_ns: u128,
        /// Window end (exclusive).
        end_ns: u128,
    },
    /// Storage fault: a crash inside the window flips one seeded bit in
    /// one seeded byte of already-persisted journal data (media
    /// corruption; recovery must quarantine, not die).
    BitFlip {
        /// Window start (inclusive).
        start_ns: u128,
        /// Window end (exclusive).
        end_ns: u128,
    },
    /// Storage fault: per-record fsyncs inside the window fail, so the
    /// durable watermark stops advancing (rotation-point syncs are hard
    /// barriers and are exempt).
    FsyncFail {
        /// Window start (inclusive).
        start_ns: u128,
        /// Window end (exclusive).
        end_ns: u128,
    },
    /// Storage fault: a crash inside the window corrupts one seeded byte
    /// of the state-dump file; recovery must detect the checksum
    /// mismatch and fall back to a full journal replay.
    DumpCorrupt {
        /// Window start (inclusive).
        start_ns: u128,
        /// Window end (exclusive).
        end_ns: u128,
    },
}

impl FaultEvent {
    /// Whether this is a storage fault (journal / state-dump domain).
    /// Storage faults never degrade the simulated memory device, so a
    /// plan holding only storage events measures healthy baselines.
    pub fn is_storage(&self) -> bool {
        matches!(
            self,
            FaultEvent::TornWrite { .. }
                | FaultEvent::BitFlip { .. }
                | FaultEvent::FsyncFail { .. }
                | FaultEvent::DumpCorrupt { .. }
        )
    }
}

/// One crash scheduled for a specific shard (compiled view).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardCrash {
    /// Simulated time of the crash.
    pub at_ns: u128,
    /// Fixed restart cost in simulated nanoseconds.
    pub restart_ns: f64,
    /// Rebuild cost per loaded key in simulated nanoseconds.
    pub rebuild_ns_per_key: f64,
}

impl ShardCrash {
    /// Total simulated cost of recovering a shard holding `keys` keys.
    pub fn recovery_ns(&self, keys: usize) -> f64 {
        self.restart_ns + self.rebuild_ns_per_key * keys as f64
    }
}

/// The compiled migration-failure schedule: a pure, seeded function of
/// `(now_ns, key, attempt)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationFaults {
    seed: u64,
    /// `(start_ns, end_ns, probability)` windows.
    windows: Vec<(u128, u128, f64)>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl MigrationFaults {
    /// Whether the schedule can ever fail a migration.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The combined failure probability at `now_ns` (overlapping windows
    /// compose as independent failure sources).
    pub fn probability_at(&self, now_ns: u128) -> f64 {
        let mut survive = 1.0;
        for &(start, end, p) in &self.windows {
            if start <= now_ns && now_ns < end {
                survive *= 1.0 - p;
            }
        }
        1.0 - survive
    }

    /// Whether the migration of `key` on retry `attempt` at `now_ns` is
    /// injected to fail. Deterministic: a seeded hash of
    /// `(seed, key, attempt)` is compared against the window probability,
    /// with no RNG state carried between calls — the verdict depends only
    /// on the arguments, never on execution order or worker count.
    pub fn fails(&self, now_ns: u128, key: u64, attempt: u32) -> bool {
        let p = self.probability_at(now_ns);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ splitmix64(key) ^ splitmix64(0x5EED ^ attempt as u64));
        // 53 high bits -> uniform in [0, 1).
        let draw = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        draw < p
    }
}

/// The compiled storage-fault schedule: window membership tests for the
/// four storage fault kinds plus a pure seeded draw for picking torn
/// offsets, flip targets, and corrupt bytes. Like [`MigrationFaults`],
/// every verdict is a function of the arguments alone — no RNG state is
/// carried between calls, so chaos runs replay identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageFaults {
    seed: u64,
    torn: Vec<(u128, u128)>,
    flip: Vec<(u128, u128)>,
    fsync: Vec<(u128, u128)>,
    dump: Vec<(u128, u128)>,
}

fn window_active(windows: &[(u128, u128)], now_ns: u128) -> bool {
    windows
        .iter()
        .any(|&(start, end)| start <= now_ns && now_ns < end)
}

impl StorageFaults {
    /// Whether the schedule contains any storage fault at all.
    pub fn is_empty(&self) -> bool {
        self.torn.is_empty()
            && self.flip.is_empty()
            && self.fsync.is_empty()
            && self.dump.is_empty()
    }

    /// Whether a crash at `now_ns` tears the unsynced journal tail.
    pub fn torn_write_at(&self, now_ns: u128) -> bool {
        window_active(&self.torn, now_ns)
    }

    /// Whether a crash at `now_ns` flips a bit in persisted journal data.
    pub fn bit_flip_at(&self, now_ns: u128) -> bool {
        window_active(&self.flip, now_ns)
    }

    /// Whether a per-record fsync issued at `now_ns` fails.
    pub fn fsync_fails(&self, now_ns: u128) -> bool {
        window_active(&self.fsync, now_ns)
    }

    /// Whether a crash at `now_ns` corrupts the state-dump file.
    pub fn dump_corrupt_at(&self, now_ns: u128) -> bool {
        window_active(&self.dump, now_ns)
    }

    /// A pure seeded draw in `[0, bound)` (0 when `bound` is 0), salted
    /// so distinct decision points take independent values.
    pub fn draw(&self, salt: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        splitmix64(self.seed ^ splitmix64(salt)) % bound
    }
}

/// A complete, validated fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions (migration failures).
    pub seed: u64,
    /// Retry policy for failed migrations.
    pub backoff: Backoff,
    /// Scheduled fault events.
    pub events: Vec<FaultEvent>,
    /// Tenant scoping for serve-mode plans: `(event index, tenant name)`
    /// pairs, sparse — an event with no entry applies to every tenant.
    /// Device-level consumers (kvsim, hybridmem) ignore scoping; the
    /// serve daemon narrows a plan with [`FaultPlan::for_tenant`] before
    /// installing it.
    pub tenant_scope: Vec<(usize, String)>,
}

impl FaultPlan {
    /// An empty plan (no faults, default backoff).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            backoff: Backoff::default_policy(),
            events: Vec::new(),
            tenant_scope: Vec::new(),
        }
    }

    /// Builder-style event append.
    pub fn with(mut self, event: FaultEvent) -> FaultPlan {
        self.events.push(event);
        self
    }

    /// Builder-style append of an event scoped to one tenant.
    pub fn with_for_tenant(mut self, event: FaultEvent, tenant: &str) -> FaultPlan {
        self.tenant_scope
            .push((self.events.len(), tenant.to_string()));
        self.events.push(event);
        self
    }

    /// The tenant an event is scoped to, if any.
    pub fn tenant_of(&self, event_index: usize) -> Option<&str> {
        self.tenant_scope
            .iter()
            .find(|(i, _)| *i == event_index)
            .map(|(_, t)| t.as_str())
    }

    /// Narrow the plan to what one tenant experiences: every unscoped
    /// event plus the events scoped to `tenant`, in their original
    /// order. The result carries no scoping — it is that tenant's whole
    /// world — and keeps the seed and backoff policy, so probabilistic
    /// draws and retry tiers stay identical to the full plan's.
    pub fn for_tenant(&self, tenant: &str) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            backoff: self.backoff,
            events: self
                .events
                .iter()
                .enumerate()
                .filter(|(i, _)| self.tenant_of(*i).is_none_or(|t| t == tenant))
                .map(|(_, e)| *e)
                .collect(),
            tenant_scope: Vec::new(),
        }
    }

    /// Whether the plan schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validate every event's parameters.
    pub fn validate(&self) -> Result<(), String> {
        self.backoff.validate()?;
        for (i, tenant) in &self.tenant_scope {
            if *i >= self.events.len() {
                return Err(format!(
                    "tenant scope references event {i} but the plan has {}",
                    self.events.len()
                ));
            }
            if tenant.is_empty() {
                return Err(format!("event {i}: tenant name must not be empty"));
            }
        }
        for (i, e) in self.events.iter().enumerate() {
            let window = |start: u128, end: u128| -> Result<(), String> {
                if start >= end {
                    Err(format!("event {i}: empty window [{start}, {end})"))
                } else {
                    Ok(())
                }
            };
            match *e {
                FaultEvent::LatencySpike {
                    start_ns,
                    end_ns,
                    factor,
                    ..
                } => {
                    window(start_ns, end_ns)?;
                    if !(factor.is_finite() && factor >= 1.0) {
                        return Err(format!(
                            "event {i}: latency factor must be >= 1, got {factor}"
                        ));
                    }
                }
                FaultEvent::BandwidthThrottle {
                    start_ns,
                    end_ns,
                    factor,
                    ..
                } => {
                    window(start_ns, end_ns)?;
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(format!(
                            "event {i}: bandwidth factor must be in (0, 1], got {factor}"
                        ));
                    }
                }
                FaultEvent::CapacityShrink {
                    start_ns, end_ns, ..
                } => window(start_ns, end_ns)?,
                FaultEvent::MigrationFailure {
                    start_ns,
                    end_ns,
                    probability,
                } => {
                    window(start_ns, end_ns)?;
                    if !(0.0..=1.0).contains(&probability) {
                        return Err(format!(
                            "event {i}: migration failure probability must be in [0, 1], got {probability}"
                        ));
                    }
                }
                FaultEvent::ShardCrash {
                    restart_ns,
                    rebuild_ns_per_key,
                    ..
                } => {
                    if !(restart_ns.is_finite() && restart_ns >= 0.0) {
                        return Err(format!("event {i}: restart_ns must be >= 0"));
                    }
                    if !(rebuild_ns_per_key.is_finite() && rebuild_ns_per_key >= 0.0) {
                        return Err(format!("event {i}: rebuild_ns_per_key must be >= 0"));
                    }
                }
                FaultEvent::TornWrite { start_ns, end_ns }
                | FaultEvent::BitFlip { start_ns, end_ns }
                | FaultEvent::FsyncFail { start_ns, end_ns }
                | FaultEvent::DumpCorrupt { start_ns, end_ns } => window(start_ns, end_ns)?,
            }
        }
        Ok(())
    }

    /// Compile the device-side events into a [`DegradationProfile`] for
    /// `hybridmem` to consult. Migration failures and shard crashes are
    /// not device degradation and are exposed separately.
    pub fn degradation_profile(&self) -> DegradationProfile {
        let mut profile = DegradationProfile::new();
        for e in &self.events {
            match *e {
                FaultEvent::LatencySpike {
                    tier,
                    start_ns,
                    end_ns,
                    factor,
                } => profile.push(DegradationWindow {
                    latency_mult: factor,
                    ..DegradationWindow::nominal(tier, start_ns, end_ns)
                }),
                FaultEvent::BandwidthThrottle {
                    tier,
                    start_ns,
                    end_ns,
                    factor,
                } => profile.push(DegradationWindow {
                    bandwidth_mult: factor,
                    ..DegradationWindow::nominal(tier, start_ns, end_ns)
                }),
                FaultEvent::CapacityShrink {
                    tier,
                    start_ns,
                    end_ns,
                    bytes,
                } => profile.push(DegradationWindow {
                    capacity_shrink: bytes,
                    ..DegradationWindow::nominal(tier, start_ns, end_ns)
                }),
                FaultEvent::MigrationFailure { .. } | FaultEvent::ShardCrash { .. } => {}
                // Storage faults live in the journal / state-dump domain,
                // not the memory device.
                FaultEvent::TornWrite { .. }
                | FaultEvent::BitFlip { .. }
                | FaultEvent::FsyncFail { .. }
                | FaultEvent::DumpCorrupt { .. } => {}
            }
        }
        profile
    }

    /// Compile the migration-failure schedule.
    pub fn migration_faults(&self) -> MigrationFaults {
        let windows = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::MigrationFailure {
                    start_ns,
                    end_ns,
                    probability,
                } => Some((start_ns, end_ns, probability)),
                _ => None,
            })
            .collect();
        MigrationFaults {
            seed: self.seed,
            windows,
        }
    }

    /// Compile the storage-fault schedule (torn writes, bit flips,
    /// fsync failures, dump corruption).
    pub fn storage_faults(&self) -> StorageFaults {
        let mut faults = StorageFaults {
            seed: self.seed,
            ..StorageFaults::default()
        };
        for e in &self.events {
            match *e {
                FaultEvent::TornWrite { start_ns, end_ns } => faults.torn.push((start_ns, end_ns)),
                FaultEvent::BitFlip { start_ns, end_ns } => faults.flip.push((start_ns, end_ns)),
                FaultEvent::FsyncFail { start_ns, end_ns } => faults.fsync.push((start_ns, end_ns)),
                FaultEvent::DumpCorrupt { start_ns, end_ns } => {
                    faults.dump.push((start_ns, end_ns))
                }
                _ => {}
            }
        }
        faults
    }

    /// The crashes scheduled for one shard, sorted by crash time.
    pub fn shard_crashes(&self, shard: usize) -> Vec<ShardCrash> {
        let mut crashes: Vec<ShardCrash> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::ShardCrash {
                    shard: s,
                    at_ns,
                    restart_ns,
                    rebuild_ns_per_key,
                } if s == shard => Some(ShardCrash {
                    at_ns,
                    restart_ns,
                    rebuild_ns_per_key,
                }),
                _ => None,
            })
            .collect();
        crashes.sort_by_key(|c| c.at_ns);
        crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::new(7)
            .with(FaultEvent::LatencySpike {
                tier: TierId::SLOW,
                start_ns: 0,
                end_ns: 1_000,
                factor: 3.0,
            })
            .with(FaultEvent::BandwidthThrottle {
                tier: TierId::SLOW,
                start_ns: 500,
                end_ns: 2_000,
                factor: 0.25,
            })
            .with(FaultEvent::CapacityShrink {
                tier: TierId::FAST,
                start_ns: 0,
                end_ns: u128::MAX,
                bytes: 4096,
            })
            .with(FaultEvent::MigrationFailure {
                start_ns: 0,
                end_ns: 10_000,
                probability: 0.5,
            })
            .with(FaultEvent::ShardCrash {
                shard: 1,
                at_ns: 5_000,
                restart_ns: 100.0,
                rebuild_ns_per_key: 10.0,
            })
    }

    #[test]
    fn compiles_device_events_to_profile() {
        let plan = sample_plan();
        plan.validate().unwrap();
        let profile = plan.degradation_profile();
        assert_eq!(profile.windows().len(), 3);
        let f = profile.factors_at(TierId::SLOW, 750);
        assert_eq!(f.latency_mult, 3.0);
        assert_eq!(f.bandwidth_mult, 0.25);
        assert_eq!(profile.factors_at(TierId::FAST, 750).capacity_shrink, 4096);
    }

    #[test]
    fn migration_faults_are_deterministic_and_windowed() {
        let faults = sample_plan().migration_faults();
        assert!(!faults.is_empty());
        assert_eq!(faults.probability_at(5_000), 0.5);
        assert_eq!(faults.probability_at(10_000), 0.0);
        // Same arguments, same verdict, forever.
        for key in 0..200u64 {
            for attempt in 0..4 {
                assert_eq!(
                    faults.fails(5_000, key, attempt),
                    faults.fails(5_000, key, attempt)
                );
            }
            assert!(!faults.fails(10_000, key, 0), "outside the window");
        }
        // Roughly half the keys fail at p = 0.5.
        let failures = (0..1000u64).filter(|&k| faults.fails(5_000, k, 0)).count();
        assert!((350..=650).contains(&failures), "failures {failures}");
        // Different seeds give different verdict patterns.
        let mut other = sample_plan();
        other.seed = 8;
        let other = other.migration_faults();
        assert!((0..1000u64).any(|k| faults.fails(5_000, k, 0) != other.fails(5_000, k, 0)));
    }

    #[test]
    fn storage_faults_compile_windows_and_draw_deterministically() {
        let plan = FaultPlan::new(11)
            .with(FaultEvent::TornWrite {
                start_ns: 1_000,
                end_ns: 2_000,
            })
            .with(FaultEvent::BitFlip {
                start_ns: 0,
                end_ns: 500,
            })
            .with(FaultEvent::FsyncFail {
                start_ns: 100,
                end_ns: 200,
            })
            .with(FaultEvent::DumpCorrupt {
                start_ns: 300,
                end_ns: u128::MAX,
            });
        plan.validate().unwrap();
        let storage = plan.storage_faults();
        assert!(!storage.is_empty());
        assert!(storage.torn_write_at(1_500) && !storage.torn_write_at(2_000));
        assert!(storage.bit_flip_at(0) && !storage.bit_flip_at(500));
        assert!(storage.fsync_fails(150) && !storage.fsync_fails(99));
        assert!(storage.dump_corrupt_at(300) && !storage.dump_corrupt_at(299));
        // Draws are pure functions of (seed, salt, bound).
        assert_eq!(storage.draw(42, 1_000), storage.draw(42, 1_000));
        assert!(storage.draw(42, 1_000) < 1_000);
        assert_eq!(storage.draw(7, 0), 0, "bound 0 never divides");
        let other = FaultPlan::new(12)
            .with(FaultEvent::TornWrite {
                start_ns: 0,
                end_ns: 1,
            })
            .storage_faults();
        assert!((0..64u64).any(|s| storage.draw(s, 1 << 30) != other.draw(s, 1 << 30)));
        // Storage events are invisible to the device profile and do not
        // mark a plan as device-degrading.
        assert_eq!(plan.degradation_profile().windows().len(), 0);
        assert!(plan.events.iter().all(FaultEvent::is_storage));
    }

    #[test]
    fn storage_windows_validate_like_device_windows() {
        let bad = FaultPlan::new(0).with(FaultEvent::TornWrite {
            start_ns: 5,
            end_ns: 5,
        });
        assert!(bad.validate().is_err());
        let ok = FaultPlan::new(0).with(FaultEvent::FsyncFail {
            start_ns: 5,
            end_ns: 6,
        });
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn overlapping_failure_windows_compose() {
        let plan = FaultPlan::new(1)
            .with(FaultEvent::MigrationFailure {
                start_ns: 0,
                end_ns: 100,
                probability: 0.5,
            })
            .with(FaultEvent::MigrationFailure {
                start_ns: 50,
                end_ns: 150,
                probability: 0.5,
            });
        let faults = plan.migration_faults();
        assert_eq!(faults.probability_at(75), 0.75);
        assert_eq!(faults.probability_at(125), 0.5);
    }

    #[test]
    fn certain_failure_and_certain_success() {
        let always = FaultPlan::new(1)
            .with(FaultEvent::MigrationFailure {
                start_ns: 0,
                end_ns: 100,
                probability: 1.0,
            })
            .migration_faults();
        assert!((0..50u64).all(|k| always.fails(10, k, 0)));
        let never = FaultPlan::new(1)
            .with(FaultEvent::MigrationFailure {
                start_ns: 0,
                end_ns: 100,
                probability: 0.0,
            })
            .migration_faults();
        assert!((0..50u64).all(|k| !never.fails(10, k, 0)));
    }

    #[test]
    fn shard_crashes_filter_and_sort() {
        let plan = sample_plan()
            .with(FaultEvent::ShardCrash {
                shard: 1,
                at_ns: 1_000,
                restart_ns: 50.0,
                rebuild_ns_per_key: 5.0,
            })
            .with(FaultEvent::ShardCrash {
                shard: 0,
                at_ns: 2_000,
                restart_ns: 50.0,
                rebuild_ns_per_key: 5.0,
            });
        let c1 = plan.shard_crashes(1);
        assert_eq!(c1.len(), 2);
        assert!(c1[0].at_ns < c1[1].at_ns);
        assert_eq!(plan.shard_crashes(0).len(), 1);
        assert!(plan.shard_crashes(9).is_empty());
        assert_eq!(c1[0].recovery_ns(10), 50.0 + 5.0 * 10.0);
    }

    #[test]
    fn tenant_scoping_narrows_the_plan() {
        let plan = FaultPlan::new(7)
            .with(FaultEvent::MigrationFailure {
                start_ns: 0,
                end_ns: 100,
                probability: 0.5,
            })
            .with_for_tenant(
                FaultEvent::ShardCrash {
                    shard: 0,
                    at_ns: 50,
                    restart_ns: 10.0,
                    rebuild_ns_per_key: 1.0,
                },
                "beta",
            )
            .with_for_tenant(
                FaultEvent::BandwidthThrottle {
                    tier: TierId::SLOW,
                    start_ns: 0,
                    end_ns: 100,
                    factor: 0.5,
                },
                "gamma",
            );
        plan.validate().unwrap();
        assert_eq!(plan.tenant_of(0), None);
        assert_eq!(plan.tenant_of(1), Some("beta"));
        assert_eq!(plan.tenant_of(2), Some("gamma"));
        // Each tenant sees the unscoped event plus its own.
        let beta = plan.for_tenant("beta");
        assert_eq!(beta.events.len(), 2);
        assert_eq!(beta.shard_crashes(0).len(), 1);
        assert!(beta.tenant_scope.is_empty());
        assert_eq!(beta.seed, plan.seed, "draws stay seed-identical");
        let gamma = plan.for_tenant("gamma");
        assert_eq!(gamma.events.len(), 2);
        assert!(gamma.shard_crashes(0).is_empty());
        let alpha = plan.for_tenant("alpha");
        assert_eq!(alpha.events.len(), 1, "only the unscoped event");
    }

    #[test]
    fn validation_catches_bad_tenant_scope() {
        let mut plan = FaultPlan::new(0).with(FaultEvent::MigrationFailure {
            start_ns: 0,
            end_ns: 1,
            probability: 0.1,
        });
        plan.tenant_scope.push((5, "ghost".into()));
        assert!(plan.validate().unwrap_err().contains("references event"));
        let mut plan = FaultPlan::new(0).with(FaultEvent::MigrationFailure {
            start_ns: 0,
            end_ns: 1,
            probability: 0.1,
        });
        plan.tenant_scope.push((0, String::new()));
        assert!(plan.validate().unwrap_err().contains("must not be empty"));
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let bad = FaultPlan::new(0).with(FaultEvent::LatencySpike {
            tier: TierId::FAST,
            start_ns: 10,
            end_ns: 10,
            factor: 2.0,
        });
        assert!(bad.validate().unwrap_err().contains("empty window"));
        let bad = FaultPlan::new(0).with(FaultEvent::MigrationFailure {
            start_ns: 0,
            end_ns: 1,
            probability: 1.5,
        });
        assert!(bad.validate().unwrap_err().contains("probability"));
        let bad = FaultPlan::new(0).with(FaultEvent::BandwidthThrottle {
            tier: TierId::SLOW,
            start_ns: 0,
            end_ns: 1,
            factor: 0.0,
        });
        assert!(bad.validate().unwrap_err().contains("bandwidth"));
    }
}
