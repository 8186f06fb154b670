//! Workload specifications: the paper's Table III presets plus the six
//! standard YCSB core workloads (A-F) they were adapted from.

use crate::dist::DistKind;
use crate::opmix::{OpClass, OpMix};
use crate::sizes::{SizeClass, SizeModel};
use crate::trace::{Op, Request, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Table III's fixed key count.
pub const DEFAULT_KEYS: u64 = 10_000;
/// Table III's fixed request count.
pub const DEFAULT_REQUESTS: usize = 100_000;

/// A complete workload description — Table III row.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
    /// Request distribution over keys.
    pub distribution: DistKind,
    /// Operation mix ("100:0 readonly" = `OpMix::read_only()`,
    /// "50:50 updateheavy" = `OpMix::read_update(0.5)`, plus scans and
    /// read-modify-writes for the YCSB core presets).
    pub ops: OpMix,
    /// How record sizes are assigned to keys.
    pub sizes: SizeModel,
    /// Number of keys.
    pub keys: u64,
    /// Number of *operations* to issue. Scans and RMWs expand into
    /// several primitive requests each, so the generated trace can hold
    /// more requests than this.
    pub requests: usize,
    /// Representative use case (Table III's last column).
    pub use_case: String,
}

impl WorkloadSpec {
    /// *Trending*: hotspot, read-only, thumbnails — "Read Facebook short
    /// Trending News". 20% of the keys receive 80% of the requests.
    pub fn trending() -> WorkloadSpec {
        WorkloadSpec {
            name: "trending".into(),
            distribution: DistKind::Hotspot {
                hot_fraction: 0.2,
                hot_op_fraction: 0.8,
            },
            ops: OpMix::read_only(),
            sizes: SizeModel::Single(SizeClass::Thumbnail),
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: "Read Facebook short Trending News".into(),
        }
    }

    /// *News Feed*: latest (with churn), read-only, thumbnails — "Read
    /// Facebook News Feed". The churn period slides the hot window across
    /// the whole key space over the trace, which is why static placement
    /// helps so little here (Fig. 9).
    pub fn news_feed() -> WorkloadSpec {
        WorkloadSpec {
            name: "news feed".into(),
            distribution: DistKind::Latest {
                theta: 0.99,
                churn_period: (DEFAULT_REQUESTS as u64 / DEFAULT_KEYS).max(1),
            },
            ops: OpMix::read_only(),
            sizes: SizeModel::Single(SizeClass::Thumbnail),
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: "Read Facebook News Feed".into(),
        }
    }

    /// *Timeline*: scrambled zipfian, read-only, thumbnails — "Read
    /// Facebook user's Timeline".
    pub fn timeline() -> WorkloadSpec {
        WorkloadSpec {
            name: "timeline".into(),
            distribution: DistKind::ScrambledZipfian { theta: 0.99 },
            ops: OpMix::read_only(),
            sizes: SizeModel::Single(SizeClass::Thumbnail),
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: "Read Facebook user's Timeline".into(),
        }
    }

    /// *Edit Thumbnail*: scrambled zipfian, 50:50 update-heavy,
    /// thumbnails — "Edit Profile Photo - Add filter/frame".
    pub fn edit_thumbnail() -> WorkloadSpec {
        WorkloadSpec {
            name: "edit thumbnail".into(),
            distribution: DistKind::ScrambledZipfian { theta: 0.99 },
            ops: OpMix::read_update(0.5),
            sizes: SizeModel::Single(SizeClass::Thumbnail),
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: "Edit Profile Photo - Add filter/frame".into(),
        }
    }

    /// *Trending Preview*: hotspot, read-only, mixed sizes (thumbnail +
    /// text post + photo caption) — "Scroll through Facebook Trending
    /// News ... preview the news photo thumbnail, caption and news
    /// summary".
    pub fn trending_preview() -> WorkloadSpec {
        WorkloadSpec {
            name: "trending preview".into(),
            distribution: DistKind::Hotspot {
                hot_fraction: 0.2,
                hot_op_fraction: 0.8,
            },
            ops: OpMix::read_only(),
            sizes: SizeModel::Mixed(vec![
                (SizeClass::Thumbnail, 1.0),
                (SizeClass::TextPost, 1.0),
                (SizeClass::Caption, 1.0),
            ]),
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: "Scroll through Facebook Trending News previews".into(),
        }
    }

    /// All five Table III workloads, in the paper's row order.
    pub fn table3() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::trending(),
            WorkloadSpec::news_feed(),
            WorkloadSpec::timeline(),
            WorkloadSpec::edit_thumbnail(),
            WorkloadSpec::trending_preview(),
        ]
    }

    fn ycsb_core(name: &str, distribution: DistKind, ops: OpMix, use_case: &str) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            distribution,
            ops,
            // YCSB's default record: 10 fields x 100 B; the TextPost class
            // (~1-10 KB, median 10 KB) is the closest social-data analogue
            // at caption-to-post scale — use Caption (~1 KB) to match the
            // 1 KB default.
            sizes: SizeModel::Single(SizeClass::Caption),
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: use_case.into(),
        }
    }

    /// YCSB core workload A: update heavy (50:50), zipfian, 1 KB records.
    pub fn ycsb_a() -> WorkloadSpec {
        Self::ycsb_core(
            "ycsb-a",
            DistKind::Zipfian { theta: 0.99 },
            OpMix::read_update(0.5),
            "Session store recording recent actions",
        )
    }

    /// YCSB core workload B: read mostly (95:5), zipfian.
    pub fn ycsb_b() -> WorkloadSpec {
        Self::ycsb_core(
            "ycsb-b",
            DistKind::Zipfian { theta: 0.99 },
            OpMix::read_update(0.95),
            "Photo tagging: read tags, occasionally add one",
        )
    }

    /// YCSB core workload C: read only, zipfian.
    pub fn ycsb_c() -> WorkloadSpec {
        Self::ycsb_core(
            "ycsb-c",
            DistKind::Zipfian { theta: 0.99 },
            OpMix::read_only(),
            "User profile cache",
        )
    }

    /// YCSB core workload D: read latest (95:5), latest distribution.
    pub fn ycsb_d() -> WorkloadSpec {
        Self::ycsb_core(
            "ycsb-d",
            DistKind::Latest {
                theta: 0.99,
                churn_period: (DEFAULT_REQUESTS as u64 / DEFAULT_KEYS).max(1),
            },
            OpMix::read_update(0.95),
            "User status updates: read the latest",
        )
    }

    /// YCSB core workload E: short ranges (95% scans, 5% updates),
    /// zipfian scan starts, scan length uniform up to 100.
    pub fn ycsb_e() -> WorkloadSpec {
        Self::ycsb_core(
            "ycsb-e",
            DistKind::Zipfian { theta: 0.99 },
            OpMix::scan_heavy(),
            "Threaded conversations: scan a thread's posts",
        )
    }

    /// YCSB core workload F: read-modify-write (50:50 read/RMW), zipfian.
    pub fn ycsb_f() -> WorkloadSpec {
        Self::ycsb_core(
            "ycsb-f",
            DistKind::Zipfian { theta: 0.99 },
            OpMix::rmw_heavy(),
            "User database: read record, modify, write back",
        )
    }

    /// *Facebook ETC-like*: the general-purpose memcached pool measured
    /// by Atikoglu et al. (SIGMETRICS 2012), which the paper cites for
    /// its workload construction: ~30:1 GET:SET, zipfian popularity, and
    /// tiny values with a very long tail (90% under ~500 B).
    pub fn facebook_etc() -> WorkloadSpec {
        WorkloadSpec {
            name: "facebook-etc".into(),
            distribution: DistKind::Zipfian { theta: 0.99 },
            ops: OpMix::read_update(30.0 / 31.0),
            sizes: SizeModel::Lognormal {
                median_bytes: 300,
                sigma: 1.2,
            },
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: "Facebook general-purpose memcached (ETC pool)".into(),
        }
    }

    /// *Scan Analytics*: uniform scan starts, 90% range scans over text
    /// posts — an analytics sideline sweeping a cache with full-range
    /// scans. The low point-skew makes per-key hotness nearly flat, so
    /// N-tier placement gains come from value sizes rather than
    /// popularity; a stress preset for tiering policies.
    pub fn scan_analytics() -> WorkloadSpec {
        WorkloadSpec {
            name: "scan analytics".into(),
            distribution: DistKind::Uniform,
            ops: OpMix {
                read: 0.1,
                update: 0.0,
                scan: 0.9,
                rmw: 0.0,
                max_scan_len: 100,
            },
            sizes: SizeModel::Single(SizeClass::TextPost),
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: "Analytics job range-scanning a post cache".into(),
        }
    }

    /// *TTL Churn*: latest distribution with a fast-sliding head and a
    /// heavy update share — a cache whose entries expire on TTL and are
    /// re-written on the next miss, so the hot set continuously rolls
    /// over the key space. Static placement decays here the same way it
    /// does for News Feed, only faster; epoch re-planning policies are
    /// the ones that keep up.
    pub fn ttl_churn() -> WorkloadSpec {
        WorkloadSpec {
            name: "ttl churn".into(),
            distribution: DistKind::Latest {
                theta: 0.9,
                churn_period: (DEFAULT_REQUESTS as u64 / DEFAULT_KEYS).max(1),
            },
            ops: OpMix::read_update(0.7),
            sizes: SizeModel::Single(SizeClass::Caption),
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: "TTL-expiring cache: expired entries rewritten on miss".into(),
        }
    }

    /// *Flash Crowd*: a static "latest" spike — the newest few items
    /// take nearly all traffic (a news story going viral), read-mostly,
    /// thumbnail-sized. The working set is tiny and stable, so even a
    /// sliver of top-tier capacity captures almost the whole load.
    pub fn flash_crowd() -> WorkloadSpec {
        WorkloadSpec {
            name: "flash crowd".into(),
            distribution: DistKind::Latest {
                theta: 0.99,
                churn_period: 0,
            },
            ops: OpMix::read_update(0.98),
            sizes: SizeModel::Single(SizeClass::Thumbnail),
            keys: DEFAULT_KEYS,
            requests: DEFAULT_REQUESTS,
            use_case: "Viral story: flash crowd on the newest items".into(),
        }
    }

    /// The tiering scenario suite: the paper's trending baseline plus
    /// the three N-tier stress presets (used by the `tier_matrix`
    /// bench).
    pub fn tier_suite() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::trending(),
            WorkloadSpec::scan_analytics(),
            WorkloadSpec::ttl_churn(),
            WorkloadSpec::flash_crowd(),
        ]
    }

    /// The six YCSB core workloads (A-F).
    pub fn ycsb_core_suite() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::ycsb_a(),
            WorkloadSpec::ycsb_b(),
            WorkloadSpec::ycsb_c(),
            WorkloadSpec::ycsb_d(),
            WorkloadSpec::ycsb_e(),
            WorkloadSpec::ycsb_f(),
        ]
    }

    /// Look a preset up by (case-insensitive) name, across both the
    /// Table III suite and the YCSB core suite.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        let needle = name.trim().to_lowercase().replace(['-', '_'], " ");
        WorkloadSpec::table3()
            .into_iter()
            .chain(WorkloadSpec::ycsb_core_suite())
            .chain(std::iter::once(WorkloadSpec::facebook_etc()))
            .chain(WorkloadSpec::tier_suite().into_iter().skip(1))
            .find(|w| w.name.replace('-', " ") == needle)
    }

    /// A scaled copy (for tests and quick sweeps).
    pub fn scaled(&self, keys: u64, requests: usize) -> WorkloadSpec {
        let mut spec = self.clone();
        // Keep the latest-churn window sliding over the whole key space.
        if let DistKind::Latest {
            theta,
            churn_period,
        } = spec.distribution
        {
            if churn_period > 0 {
                spec.distribution = DistKind::Latest {
                    theta,
                    churn_period: (requests as u64 / keys).max(1),
                };
            }
        }
        spec.keys = keys;
        spec.requests = requests;
        spec
    }

    /// The read fraction of the mix over primitive accesses (legacy
    /// accessor; `ops` is the full description).
    pub fn read_fraction(&self) -> f64 {
        self.ops.expected_read_fraction()
    }

    /// Materialise the trace: assign per-key sizes, then draw `requests`
    /// operations, expanding scans into consecutive reads and RMWs into a
    /// read + update of the same key. Deterministic per `(spec, seed)`.
    pub fn generate(&self, seed: u64) -> Trace {
        assert!(self.keys > 0, "workload needs keys");
        // mnemo-lint: allow(R001, "an invalid operation mix is a spec programming error; generate() documents the panic")
        self.ops.validate().expect("invalid operation mix");
        let sizes: Vec<u64> = (0..self.keys)
            .map(|k| self.sizes.size_of(k, seed))
            .collect();
        let mut chooser = self.distribution.chooser(self.keys);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let mut requests = Vec::with_capacity(
            (self.requests as f64 * self.ops.expected_accesses_per_op()) as usize,
        );
        for _ in 0..self.requests {
            let key = chooser.next(&mut rng);
            match self.ops.sample(&mut rng) {
                OpClass::Read => requests.push(Request { key, op: Op::Read }),
                OpClass::Update => requests.push(Request {
                    key,
                    op: Op::Update,
                }),
                OpClass::Scan => {
                    let len = self.ops.scan_len(&mut rng);
                    for i in 0..len as u64 {
                        requests.push(Request {
                            key: (key + i) % self.keys,
                            op: Op::Read,
                        });
                    }
                }
                OpClass::ReadModifyWrite => {
                    requests.push(Request { key, op: Op::Read });
                    requests.push(Request {
                        key,
                        op: Op::Update,
                    });
                }
            }
        }
        Trace {
            name: self.name.clone(),
            sizes,
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_five_rows_with_paper_parameters() {
        let rows = WorkloadSpec::table3();
        assert_eq!(rows.len(), 5);
        for w in &rows {
            assert_eq!(w.keys, 10_000);
            assert_eq!(w.requests, 100_000);
        }
        assert_eq!(rows[0].name, "trending");
        assert_eq!(rows[3].read_fraction(), 0.5, "edit thumbnail is 50:50");
        assert!(matches!(rows[4].sizes, SizeModel::Mixed(_)));
    }

    #[test]
    fn by_name_is_forgiving() {
        assert!(WorkloadSpec::by_name("Trending").is_some());
        assert!(WorkloadSpec::by_name("news_feed").is_some());
        assert!(WorkloadSpec::by_name("edit-thumbnail").is_some());
        assert!(WorkloadSpec::by_name("scan-analytics").is_some());
        assert!(WorkloadSpec::by_name("TTL_churn").is_some());
        assert!(WorkloadSpec::by_name("flash crowd").is_some());
        assert!(WorkloadSpec::by_name("nope").is_none());
    }

    #[test]
    fn tier_suite_presets_generate_and_differ_in_shape() {
        // Scan analytics: scans expand, so primitive requests exceed ops.
        let scan = WorkloadSpec::scan_analytics().scaled(200, 2_000);
        let t = scan.generate(3);
        assert!(t.len() > 2_000, "scans must expand: {}", t.len());
        // TTL churn keeps its head sliding over the whole key space.
        let churn = WorkloadSpec::ttl_churn().scaled(500, 5_000);
        assert!(matches!(
            churn.distribution,
            DistKind::Latest {
                churn_period: 10,
                ..
            }
        ));
        assert!((churn.read_fraction() - 0.7).abs() < 1e-12);
        // Flash crowd: the static head concentrates traffic on the
        // newest tenth of the key space, far more than the churning
        // TTL preset which rolls its head across all keys.
        let fc = WorkloadSpec::flash_crowd()
            .scaled(1_000, 50_000)
            .generate(5);
        let fc_curve = fc.hot_mass_curve();
        assert!(fc_curve[99] > 0.65, "hot mass at 10%: {}", fc_curve[99]);
        let tc = WorkloadSpec::ttl_churn().scaled(1_000, 50_000).generate(5);
        let tc_curve = tc.hot_mass_curve();
        assert!(
            fc_curve[99] > tc_curve[99] + 0.2,
            "flash {} vs churn {}",
            fc_curve[99],
            tc_curve[99]
        );
    }

    #[test]
    fn generate_is_deterministic() {
        let spec = WorkloadSpec::trending().scaled(100, 1000);
        assert_eq!(spec.generate(7), spec.generate(7));
        assert_ne!(spec.generate(7), spec.generate(8));
    }

    #[test]
    fn read_fraction_is_respected() {
        let spec = WorkloadSpec::edit_thumbnail().scaled(100, 20_000);
        let t = spec.generate(3);
        assert!(
            (t.read_fraction() - 0.5).abs() < 0.02,
            "{}",
            t.read_fraction()
        );
        let ro = WorkloadSpec::timeline().scaled(100, 1000).generate(3);
        assert_eq!(ro.read_fraction(), 1.0);
    }

    #[test]
    fn trending_concentrates_mass() {
        let t = WorkloadSpec::trending().scaled(1000, 50_000).generate(5);
        let curve = t.hot_mass_curve();
        // 20% of keys (hottest 200) must hold ~80% of requests.
        let at20 = curve[199];
        assert!((at20 - 0.8).abs() < 0.05, "hot mass at 20%: {at20}");
    }

    #[test]
    fn news_feed_spreads_mass() {
        let t = WorkloadSpec::news_feed().scaled(1000, 50_000).generate(5);
        let curve = t.hot_mass_curve();
        // Churning latest: the hottest 20% of keys capture far less than
        // trending's 80%.
        assert!(
            curve[199] < 0.5,
            "news feed hot mass at 20%: {}",
            curve[199]
        );
    }

    #[test]
    fn mixed_sizes_in_preview() {
        let t = WorkloadSpec::trending_preview()
            .scaled(3000, 10)
            .generate(1);
        let small = t.sizes.iter().filter(|&&s| s < 4 * 1024).count();
        let large = t.sizes.iter().filter(|&&s| s > 32 * 1024).count();
        assert!(small > 500, "captions present: {small}");
        assert!(large > 500, "thumbnails present: {large}");
    }

    #[test]
    fn scaled_keeps_latest_churn_covering_keyspace() {
        let spec = WorkloadSpec::news_feed().scaled(500, 5000);
        match spec.distribution {
            DistKind::Latest { churn_period, .. } => assert_eq!(churn_period, 10),
            _ => panic!("news feed must stay latest"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid operation mix")]
    fn generate_rejects_bad_op_mix() {
        let mut spec = WorkloadSpec::trending();
        spec.ops = OpMix {
            read: -1.0,
            ..OpMix::read_only()
        };
        let _ = spec.generate(0);
    }

    #[test]
    fn ycsb_core_suite_presets() {
        let suite = WorkloadSpec::ycsb_core_suite();
        assert_eq!(suite.len(), 6);
        assert_eq!(suite[2].read_fraction(), 1.0, "C is read-only");
        assert!(WorkloadSpec::by_name("ycsb-e").is_some());
        assert!(WorkloadSpec::by_name("YCSB_F").is_some());
    }

    #[test]
    fn scans_expand_to_consecutive_reads() {
        let spec = WorkloadSpec::ycsb_e().scaled(100, 500);
        let t = spec.generate(3);
        // Expansion: ~95% scans with mean length ~50 -> far more
        // primitive requests than operations.
        assert!(t.len() > 10 * 500, "expanded to {} requests", t.len());
        assert!(t.read_fraction() > 0.99);
        // Consecutive-read structure: most successors of a read are key+1.
        let mut consecutive = 0;
        for w in t.requests.windows(2) {
            if w[1].key == (w[0].key + 1) % 100 {
                consecutive += 1;
            }
        }
        assert!(
            consecutive as f64 / t.len() as f64 > 0.8,
            "{consecutive}/{}",
            t.len()
        );
    }

    #[test]
    fn rmw_expands_to_read_then_update() {
        let spec = WorkloadSpec::ycsb_f().scaled(100, 2_000);
        let t = spec.generate(4);
        // ~50% of ops are RMW -> requests ~ 1.5x ops, read fraction 2/3.
        assert!(t.len() > 2_700 && t.len() < 3_300, "len {}", t.len());
        assert!((t.read_fraction() - 2.0 / 3.0).abs() < 0.02);
        // Every update in F follows a read of the same key.
        for w in t.requests.windows(2) {
            if w[1].op == Op::Update {
                assert_eq!(w[0].key, w[1].key);
                assert_eq!(w[0].op, Op::Read);
            }
        }
    }
}
