//! Embedded November-2018 on-demand VM price catalogue.
//!
//! The Mnemo paper (Section I) estimates the memory share of VM cost for
//! select *Memory Optimized* instances across AWS, Google Cloud and
//! Microsoft Azure, by regressing over "all VM instances per cloud
//! provider". This module embeds the public on-demand price points the
//! paper's figure is built from (us-east / Nov 2018 list prices; hourly,
//! Linux, on-demand). Prices are constants of the reproduction — they do
//! not need network access and never change under test.

/// One virtual machine instance type: its shape and hourly list price.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance type name as the provider lists it, e.g. `cache.r5.xlarge`.
    pub name: &'static str,
    /// Number of virtual CPUs.
    pub vcpus: f64,
    /// Memory capacity in GiB.
    pub memory_gb: f64,
    /// Hourly on-demand price in USD.
    pub hourly_usd: f64,
    /// Whether the provider markets this type as memory optimized.
    pub memory_optimized: bool,
}

/// Which cloud provider a catalogue belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProviderKind {
    /// Amazon Web Services (ElastiCache node types).
    Aws,
    /// Google Compute Engine (n1 predefined + megamem/ultramem).
    Gcp,
    /// Microsoft Azure (Dv3/Ev3/M series).
    Azure,
}

impl ProviderKind {
    /// All providers in the paper's Fig. 1, in presentation order.
    pub const ALL: [ProviderKind; 3] = [ProviderKind::Aws, ProviderKind::Gcp, ProviderKind::Azure];

    /// Human-readable provider name.
    pub fn name(self) -> &'static str {
        match self {
            ProviderKind::Aws => "AWS ElastiCache",
            ProviderKind::Gcp => "Google Compute Engine",
            ProviderKind::Azure => "Microsoft Azure",
        }
    }
}

/// A provider's instance catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Provider {
    /// Which provider this is.
    pub kind: ProviderKind,
    /// Every instance type used in the regression.
    pub instances: Vec<Instance>,
}

impl Provider {
    /// Catalogue for a given provider kind.
    pub fn new(kind: ProviderKind) -> Self {
        match kind {
            ProviderKind::Aws => Self::aws(),
            ProviderKind::Gcp => Self::gcp(),
            ProviderKind::Azure => Self::azure(),
        }
    }

    /// AWS ElastiCache node types (us-east-1, Nov 2018). The `cache.m5`
    /// general-purpose family varies the GiB:vCPU ratio against the
    /// memory-optimized `cache.r5` family, which is what makes the
    /// least-squares split identifiable.
    pub fn aws() -> Self {
        let i = |name, vcpus: f64, memory_gb: f64, hourly_usd: f64, mo| Instance {
            name,
            vcpus,
            memory_gb,
            hourly_usd,
            memory_optimized: mo,
        };
        Provider {
            kind: ProviderKind::Aws,
            instances: vec![
                i("cache.t2.medium", 2.0, 3.22, 0.068, false),
                i("cache.m5.large", 2.0, 6.38, 0.156, false),
                i("cache.m5.xlarge", 4.0, 12.93, 0.311, false),
                i("cache.m5.2xlarge", 8.0, 26.04, 0.622, false),
                i("cache.m5.4xlarge", 16.0, 52.26, 1.245, false),
                i("cache.m5.12xlarge", 48.0, 157.12, 3.734, false),
                i("cache.m5.24xlarge", 96.0, 314.32, 7.469, false),
                i("cache.r5.large", 2.0, 13.07, 0.216, true),
                i("cache.r5.xlarge", 4.0, 26.32, 0.431, true),
                i("cache.r5.2xlarge", 8.0, 52.82, 0.862, true),
                i("cache.r5.4xlarge", 16.0, 105.81, 1.723, true),
                i("cache.r5.12xlarge", 48.0, 317.77, 5.170, true),
                i("cache.r5.24xlarge", 96.0, 635.61, 10.340, true),
            ],
        }
    }

    /// Google Compute Engine predefined types (us-central1, Nov 2018),
    /// spanning standard (3.75 GiB/vCPU), highmem (6.5), megamem (~14.9)
    /// and ultramem (~24) shapes. The paper reports `n1-ultramem` and
    /// `n1-megamem`.
    pub fn gcp() -> Self {
        let i = |name, vcpus: f64, memory_gb: f64, hourly_usd: f64, mo| Instance {
            name,
            vcpus,
            memory_gb,
            hourly_usd,
            memory_optimized: mo,
        };
        Provider {
            kind: ProviderKind::Gcp,
            instances: vec![
                i("n1-standard-1", 1.0, 3.75, 0.0475, false),
                i("n1-standard-4", 4.0, 15.0, 0.1900, false),
                i("n1-standard-16", 16.0, 60.0, 0.7600, false),
                i("n1-standard-64", 64.0, 240.0, 3.0400, false),
                i("n1-standard-96", 96.0, 360.0, 4.5600, false),
                i("n1-highmem-2", 2.0, 13.0, 0.1184, false),
                i("n1-highmem-8", 8.0, 52.0, 0.4736, false),
                i("n1-highmem-32", 32.0, 208.0, 1.8944, false),
                i("n1-highmem-96", 96.0, 624.0, 5.6832, false),
                i("n1-megamem-96", 96.0, 1433.6, 10.6740, true),
                i("n1-ultramem-40", 40.0, 961.0, 6.3039, true),
                i("n1-ultramem-80", 80.0, 1922.0, 12.6078, true),
                i("n1-ultramem-160", 160.0, 3844.0, 25.2156, true),
            ],
        }
    }

    /// Microsoft Azure Linux VM types (East US, Nov 2018): Dv3 general
    /// purpose, Ev3 memory optimized and the Extreme-memory M series the
    /// paper reports on.
    pub fn azure() -> Self {
        let i = |name, vcpus: f64, memory_gb: f64, hourly_usd: f64, mo| Instance {
            name,
            vcpus,
            memory_gb,
            hourly_usd,
            memory_optimized: mo,
        };
        Provider {
            kind: ProviderKind::Azure,
            instances: vec![
                i("D2s v3", 2.0, 8.0, 0.096, false),
                i("D4s v3", 4.0, 16.0, 0.192, false),
                i("D8s v3", 8.0, 32.0, 0.384, false),
                i("D16s v3", 16.0, 64.0, 0.768, false),
                i("D32s v3", 32.0, 128.0, 1.536, false),
                i("D64s v3", 64.0, 256.0, 3.072, false),
                i("E2s v3", 2.0, 16.0, 0.126, true),
                i("E8s v3", 8.0, 64.0, 0.504, true),
                i("E32s v3", 32.0, 256.0, 2.016, true),
                i("E64s v3", 64.0, 432.0, 3.629, true),
                i("M64s", 64.0, 1024.0, 6.669, true),
                i("M64ms", 64.0, 1792.0, 10.337, true),
                i("M128s", 128.0, 2048.0, 13.338, true),
                i("M128ms", 128.0, 3892.0, 26.688, true),
            ],
        }
    }

    /// The memory-optimized subset — the instances Fig. 1 reports.
    pub fn memory_optimized(&self) -> Vec<Instance> {
        self.instances
            .iter()
            .filter(|i| i.memory_optimized)
            .cloned()
            .collect()
    }

    /// Look an instance up by name.
    pub fn instance(&self, name: &str) -> Option<&Instance> {
        self.instances.iter().find(|i| i.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogues_are_nonempty_and_sane() {
        for kind in ProviderKind::ALL {
            let p = Provider::new(kind);
            assert!(p.instances.len() >= 10, "{kind:?} too small");
            for i in &p.instances {
                assert!(i.vcpus > 0.0, "{}: vcpus", i.name);
                assert!(i.memory_gb > 0.0, "{}: memory", i.name);
                assert!(i.hourly_usd > 0.0, "{}: price", i.name);
            }
        }
    }

    #[test]
    fn each_provider_has_memory_optimized_instances() {
        for kind in ProviderKind::ALL {
            let p = Provider::new(kind);
            assert!(!p.memory_optimized().is_empty());
        }
    }

    #[test]
    fn memory_optimized_instances_have_fatter_shapes() {
        // Memory-optimized families must carry more GiB per vCPU than the
        // general-purpose ones, otherwise the regression has nothing to
        // tease apart.
        for kind in ProviderKind::ALL {
            let p = Provider::new(kind);
            let avg = |mo: bool| {
                let xs: Vec<f64> = p
                    .instances
                    .iter()
                    .filter(|i| i.memory_optimized == mo)
                    .map(|i| i.memory_gb / i.vcpus)
                    .collect();
                xs.iter().sum::<f64>() / xs.len() as f64
            };
            assert!(avg(true) > avg(false), "{kind:?}");
        }
    }

    #[test]
    fn price_scales_roughly_linearly_within_a_family() {
        let aws = Provider::aws();
        let large = aws.instance("cache.r5.large").unwrap();
        let xl24 = aws.instance("cache.r5.24xlarge").unwrap();
        let per_vcpu_small = large.hourly_usd / large.vcpus;
        let per_vcpu_big = xl24.hourly_usd / xl24.vcpus;
        let ratio = per_vcpu_big / per_vcpu_small;
        assert!((0.9..=1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn lookup_by_name() {
        let gcp = Provider::gcp();
        assert!(gcp.instance("n1-ultramem-160").is_some());
        assert!(gcp.instance("does-not-exist").is_none());
    }
}
