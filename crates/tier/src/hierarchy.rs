//! Hierarchy presets and the hierarchy spec-file format.
//!
//! A hierarchy is a [`StackSpec`]: an ordered list of tiers (fastest
//! first), each with Table-I-style timing, a capacity and a $/GiB price,
//! plus the shared LLC in front. This module provides the named presets
//! the benches sweep over and the spec-file schema over the workspace's
//! TOML-subset reader ([`mnemo_codec::toml`]), whose every error carries
//! the 1-based line it was found on — same discipline as fault plans.
//!
//! ```toml
//! # three-tier pyramid
//! [[tier]]
//! name = "dram"
//! capacity_gib = 4
//! read_latency_ns = 65.7
//! bandwidth_bytes_per_ns = 14.9
//! write_latency_factor = 0.2
//! write_overlap_factor = 3.0
//! price_per_gib = 6.0
//!
//! [[tier]]
//! name = "optane"
//! capacity_gib = 16
//! read_latency_ns = 305.0
//! bandwidth_bytes_per_ns = 6.6
//! write_latency_factor = 0.31
//! write_overlap_factor = 0.35
//! price_per_gib = 2.0
//! ```
//!
//! An optional `[cache]` section overrides the paper's 12 MB LLC.

use hybridmem::cache::CacheKind;
use hybridmem::spec::TierSpec;
use hybridmem::stack::{StackSpec, TierDef};
use hybridmem::CacheConfig;
use mnemo_codec::toml::{self, Record};
use mnemo_codec::ParseError;

/// A three-tier pyramid: the paper's DRAM, Optane-DC-style persistent
/// memory (write-asymmetric), and an SSD-backed swap tier. Capacities
/// follow the testbed's proportions (4 GB DRAM, 4x NVM, 8x swap).
pub fn dram_optane_ssd() -> StackSpec {
    StackSpec {
        tiers: vec![
            TierDef {
                name: "dram".into(),
                spec: TierSpec::paper_fastmem(),
                capacity_bytes: 4 << 30,
                price_per_gib: 6.0,
            },
            TierDef {
                name: "optane".into(),
                spec: TierSpec::optane_dc(),
                capacity_bytes: 16 << 30,
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
                capacity_bytes: 32 << 30,
                price_per_gib: 0.1,
            },
        ],
        cache: CacheConfig::paper_llc(),
    }
}

/// Names of the built-in hierarchy presets, in sweep order.
pub const PRESETS: [&str; 2] = ["paper_two_tier", "dram_optane_ssd"];

/// Resolve a built-in hierarchy preset by name.
pub fn preset(name: &str) -> Option<StackSpec> {
    match name {
        "paper_two_tier" => Some(StackSpec::paper_testbed()),
        "dram_optane_ssd" => Some(dram_optane_ssd()),
        _ => None,
    }
}

/// A hierarchy spec-file parse or validation error, with the offending
/// 1-based line (0 for document-level errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number; 0 for document-level errors.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl SpecError {
    fn at(line: usize, reason: impl Into<String>) -> SpecError {
        SpecError {
            line,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "hierarchy spec: {}", self.reason)
        } else {
            write!(f, "hierarchy spec line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for SpecError {}

/// Errors from [`load_hierarchy`].
#[derive(Debug)]
pub enum HierarchyLoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file's contents were not a valid hierarchy.
    Parse(SpecError),
}

impl std::fmt::Display for HierarchyLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyLoadError::Io(e) => write!(f, "cannot read hierarchy file: {e}"),
            HierarchyLoadError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HierarchyLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HierarchyLoadError::Io(e) => Some(e),
            HierarchyLoadError::Parse(e) => Some(e),
        }
    }
}

/// Load a hierarchy spec file (resolving a preset name first, so CLI
/// flags can say `--hierarchy dram_optane_ssd` or point at a file).
pub fn load_hierarchy(path: &std::path::Path) -> Result<StackSpec, HierarchyLoadError> {
    let text = std::fs::read_to_string(path).map_err(HierarchyLoadError::Io)?;
    parse_hierarchy(&text).map_err(HierarchyLoadError::Parse)
}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> SpecError {
        SpecError::at(e.line, e.msg)
    }
}

/// Capacity from exactly one of `capacity_bytes` / `capacity_mib` /
/// `capacity_gib`.
fn capacity(record: &Record) -> Result<u64, SpecError> {
    let candidates = [
        ("capacity_bytes", 1u64),
        ("capacity_mib", 1 << 20),
        ("capacity_gib", 1 << 30),
    ];
    let mut found: Option<(u64, usize)> = None;
    for (key, unit) in candidates {
        if let Some(n) = record.u64(key)? {
            let line = record.get(key).map(|(_, l)| l).unwrap_or(record.line);
            if found.is_some() {
                return Err(SpecError::at(
                    line,
                    "capacity given more than once (use exactly one of \
                     capacity_bytes, capacity_mib, capacity_gib)",
                ));
            }
            let bytes = n
                .checked_mul(unit)
                .ok_or_else(|| SpecError::at(line, format!("`{key}` overflows a byte count")))?;
            found = Some((bytes, line));
        }
    }
    found.map(|(bytes, _)| bytes).ok_or_else(|| {
        SpecError::at(
            record.line,
            "missing capacity (one of capacity_bytes, capacity_mib, capacity_gib)",
        )
    })
}

/// The `[cache]` record and the `[[tier]]` records, with every other
/// section and any top-level key rejected.
fn parse_raw(text: &str) -> Result<(Option<Record>, Vec<Record>), SpecError> {
    let doc = toml::parse(text)?;
    if let Some((key, _, line)) = doc.top.fields().first() {
        return Err(SpecError::at(
            *line,
            format!("`{key}` outside any section (expected [[tier]] or [cache])"),
        ));
    }
    let mut cache = None;
    for table in doc.tables {
        if table.name != "cache" {
            return Err(SpecError::at(
                table.line,
                format!("unknown section `[{}]`", table.name),
            ));
        }
        cache = Some(table);
    }
    if let Some(entry) = doc
        .arrays
        .iter()
        .find(|a| !matches!(a.name.as_str(), "tier" | "tiers"))
    {
        return Err(SpecError::at(
            entry.line,
            format!("unknown array table `[[{}]]`", entry.name),
        ));
    }
    Ok((cache, doc.arrays))
}

fn build_cache(record: &Record) -> Result<CacheConfig, SpecError> {
    record.known_keys(&[
        "kind",
        "capacity_bytes",
        "capacity_mib",
        "capacity_gib",
        "line_bytes",
        "ways",
        "hit_latency_ns",
        "bandwidth_bytes_per_ns",
    ])?;
    let mut cache = CacheConfig::paper_llc();
    if let Some((kind, line)) = record.str("kind")? {
        cache.kind = match kind {
            "none" => CacheKind::None,
            "object_lru" => CacheKind::ObjectLru,
            "set_associative" => CacheKind::SetAssociative,
            other => {
                return Err(SpecError::at(
                    line,
                    format!(
                        "unknown cache kind `{other}` \
                         (expected one of: none, object_lru, set_associative)"
                    ),
                ))
            }
        };
    }
    if record.get("capacity_bytes").is_some()
        || record.get("capacity_mib").is_some()
        || record.get("capacity_gib").is_some()
    {
        cache.capacity_bytes = capacity(record)?;
    }
    if let Some(n) = record.u64("line_bytes")? {
        cache.line_bytes = n;
    }
    if let Some(n) = record.u64("ways")? {
        cache.ways = hybridmem::num::usize_from_u64(n);
    }
    if let Some(x) = record.f64("hit_latency_ns")? {
        cache.hit_latency_ns = x;
    }
    if let Some(x) = record.f64("bandwidth_bytes_per_ns")? {
        cache.bandwidth_bytes_per_ns = x;
    }
    Ok(cache)
}

/// Parse a hierarchy spec from the TOML subset (`[[tier]]` tables of
/// scalars plus an optional `[cache]` section). The parsed spec is
/// validated ([`StackSpec::validate`]) before being returned, with the
/// validation failure attributed to the offending `[[tier]]` or
/// `[cache]` line.
pub fn parse_hierarchy(text: &str) -> Result<StackSpec, SpecError> {
    let (cache, raw_tiers) = parse_raw(text)?;
    if raw_tiers.is_empty() {
        return Err(SpecError::at(0, "hierarchy has no [[tier]] tables"));
    }
    let mut tiers = Vec::with_capacity(raw_tiers.len());
    let mut lines = Vec::with_capacity(raw_tiers.len());
    for t in &raw_tiers {
        t.known_keys(&[
            "name",
            "capacity_bytes",
            "capacity_mib",
            "capacity_gib",
            "read_latency_ns",
            "bandwidth_bytes_per_ns",
            "write_latency_factor",
            "write_overlap_factor",
            "price_per_gib",
        ])?;
        let (name, _) = t
            .str("name")?
            .ok_or_else(|| SpecError::at(t.line, "missing required field `name`"))?;
        tiers.push(TierDef {
            name: name.to_string().into(),
            spec: TierSpec {
                read_latency_ns: t.require_f64("read_latency_ns")?,
                bandwidth_bytes_per_ns: t.require_f64("bandwidth_bytes_per_ns")?,
                write_latency_factor: t.f64("write_latency_factor")?.unwrap_or(1.0),
                write_overlap_factor: t.f64("write_overlap_factor")?.unwrap_or(1.0),
            },
            capacity_bytes: capacity(t)?,
            price_per_gib: t.require_f64("price_per_gib")?,
        });
        lines.push(t.line);
    }
    let (cache, cache_line) = match &cache {
        Some(record) => (build_cache(record)?, Some(record.line)),
        None => (CacheConfig::paper_llc(), None),
    };
    let spec = StackSpec { tiers, cache };
    if let Err(reason) = spec.validate() {
        // Attribute the failure to the `[cache]` record or the tier it
        // names, falling back to the first tier's line for stack-level
        // problems.
        let line = cache_line
            .filter(|_| reason.starts_with("[cache]"))
            .or_else(|| {
                spec.tiers
                    .iter()
                    .position(|t| reason.contains(&format!("'{}'", t.name)))
                    .map(|i| lines[i])
            })
            .unwrap_or(lines[0]);
        return Err(SpecError::at(line, reason));
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem::TierId;

    const THREE_TIER: &str = r#"
# pyramid under test
[cache]
kind = "object_lru"
capacity_mib = 12

[[tier]]
name = "dram"
capacity_gib = 4
read_latency_ns = 65.7
bandwidth_bytes_per_ns = 14.9
write_latency_factor = 0.2
write_overlap_factor = 3.0
price_per_gib = 6.0

[[tier]]
name = "optane"
capacity_gib = 16
read_latency_ns = 305.0
bandwidth_bytes_per_ns = 6.6
write_latency_factor = 0.31
write_overlap_factor = 0.35
price_per_gib = 2.0

[[tier]]
name = "ssd"
capacity_gib = 32
read_latency_ns = 10000.0
bandwidth_bytes_per_ns = 3.2
write_latency_factor = 0.5
price_per_gib = 0.1
"#;

    #[test]
    fn parses_a_three_tier_spec() {
        let spec = parse_hierarchy(THREE_TIER).unwrap();
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.tier_by_name("optane"), Some(TierId(1)));
        assert_eq!(spec.tiers[0].capacity_bytes, 4 << 30);
        assert_eq!(spec.cache.capacity_bytes, 12 << 20);
        assert_eq!(spec.tiers[2].spec.write_overlap_factor, 1.0);
        assert!((spec.cost_usd() - (4.0 * 6.0 + 16.0 * 2.0 + 32.0 * 0.1)).abs() < 1e-9);
    }

    #[test]
    fn presets_resolve_and_validate() {
        for name in PRESETS {
            let spec = preset(name).unwrap();
            assert!(spec.validate().is_ok(), "{name}");
        }
        assert!(preset("tape_library").is_none());
        assert_eq!(preset("paper_two_tier"), Some(StackSpec::paper_testbed()));
        assert_eq!(dram_optane_ssd().len(), 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let missing = THREE_TIER.replace("name = \"optane\"\n", "");
        let err = parse_hierarchy(&missing).unwrap_err();
        assert_eq!(err.line, 16, "points at the nameless [[tier]]: {err}");
        assert!(err.reason.contains("missing required field `name`"));

        let bad_value = THREE_TIER.replace(
            "bandwidth_bytes_per_ns = 6.6",
            "bandwidth_bytes_per_ns = \"fast\"",
        );
        let err = parse_hierarchy(&bad_value).unwrap_err();
        assert_eq!(err.line, 20, "{err}");
        assert!(err.reason.contains("must be a number"));

        let unknown = THREE_TIER.replace("price_per_gib = 0.1", "cost = 0.1");
        let err = parse_hierarchy(&unknown).unwrap_err();
        assert!(err.reason.contains("unknown field `cost`"));
        assert_eq!(err.line, 31, "{err}");
    }

    #[test]
    fn validation_failures_name_the_tier_line() {
        let dup = THREE_TIER.replace("name = \"optane\"", "name = \"DRAM\"");
        let err = parse_hierarchy(&dup).unwrap_err();
        assert!(err.reason.contains("duplicate tier name"), "{err}");
        assert_eq!(err.line, 16, "points at the second [[tier]]: {err}");
    }

    #[test]
    fn capacity_must_be_given_exactly_once() {
        let twice = THREE_TIER.replace(
            "name = \"ssd\"\ncapacity_gib = 32",
            "name = \"ssd\"\ncapacity_gib = 32\ncapacity_mib = 1",
        );
        let err = parse_hierarchy(&twice).unwrap_err();
        assert!(err.reason.contains("more than once"), "{err}");
        let none = THREE_TIER.replace("capacity_gib = 32\n", "");
        let err = parse_hierarchy(&none).unwrap_err();
        assert!(err.reason.contains("missing capacity"), "{err}");
    }

    #[test]
    fn top_level_keys_and_unknown_sections_are_rejected() {
        let err = parse_hierarchy(&format!("\nllc = 1\n{THREE_TIER}")).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.reason.contains("outside any section"), "{err}");
        let err = parse_hierarchy(&THREE_TIER.replace("[cache]", "[llc]")).unwrap_err();
        assert_eq!(
            (err.line, err.reason.as_str()),
            (3, "unknown section `[llc]`")
        );
        let err = parse_hierarchy(&format!("{THREE_TIER}\n[[device]]\n")).unwrap_err();
        assert!(
            err.reason.contains("unknown array table `[[device]]`"),
            "{err}"
        );
        let err = parse_hierarchy(&format!("{THREE_TIER}\n[cache]\n")).unwrap_err();
        assert!(err.reason.contains("duplicate [cache] section"), "{err}");
    }

    #[test]
    fn empty_document_is_rejected() {
        let err = parse_hierarchy("# nothing here\n").unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.reason.contains("no [[tier]]"));
    }

    #[test]
    fn unbuildable_cache_is_rejected_at_its_section() {
        let set_assoc = THREE_TIER.replace("\"object_lru\"", "\"set_associative\"");
        for (bad, reason) in [
            (
                "line_bytes = 48",
                "[cache] line_bytes must be a power of two",
            ),
            ("ways = 0", "[cache] ways must be at least 1"),
            (
                "ways = 4611686018427387904",
                "[cache] ways must be at least 1",
            ),
            (
                "hit_latency_ns = -5.0",
                "[cache] hit_latency_ns must be finite",
            ),
            (
                "bandwidth_bytes_per_ns = 0.0",
                "[cache] bandwidth_bytes_per_ns must be finite",
            ),
        ] {
            let text = set_assoc.replace("capacity_mib = 12", &format!("capacity_mib = 12\n{bad}"));
            let err = parse_hierarchy(&text).unwrap_err();
            assert_eq!(err.line, 3, "points at [cache] for `{bad}`: {err}");
            assert!(err.reason.starts_with(reason), "`{bad}`: {err}");
        }
        // Timing applies to every real cache, not only the line model.
        let lru = THREE_TIER.replace(
            "capacity_mib = 12",
            "capacity_mib = 12\nhit_latency_ns = -5.0",
        );
        assert_eq!(parse_hierarchy(&lru).unwrap_err().line, 3);
    }

    #[test]
    fn unknown_cache_kind_is_rejected_with_candidates() {
        let bad = THREE_TIER.replace("kind = \"object_lru\"", "kind = \"victim\"");
        let err = parse_hierarchy(&bad).unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        assert!(err.reason.contains("unknown cache kind `victim`"));
        assert!(err.reason.contains("set_associative"));
    }
}
