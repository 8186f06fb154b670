//! The fault-plan schema over the workspace's TOML and JSON readers.
//!
//! Both formats map onto the same line-tagged records
//! ([`mnemo_codec::toml::Record`]) before validation, so every syntax or
//! schema error carries the 1-based line it was found on.

use crate::backoff::Backoff;
use crate::plan::{FaultEvent, FaultPlan};
use hybridmem::TierId;
use mnemo_codec::json::{self, Json};
use mnemo_codec::toml::{self, Record, Value};
use mnemo_codec::ParseError;

/// Tier-name resolution table used while parsing `tier = "..."` fields.
///
/// The default ([`TierNames::legacy`]) resolves the two-tier aliases
/// (`fast`/`fastmem`/`dram` and `slow`/`slowmem`/`nvm`). Hierarchy-aware
/// callers build one from their tier list with [`TierNames::from_names`]
/// so plans can reference tiers by hierarchy name; the positional
/// `tier<N>` forms and any non-colliding legacy alias keep resolving.
#[derive(Debug, Clone)]
pub struct TierNames {
    /// `(lowercased alias, tier)` pairs; first match wins.
    entries: Vec<(String, TierId)>,
    /// Primary names in stack order, for error messages.
    primary: Vec<String>,
}

const LEGACY_ALIASES: [(&str, TierId); 6] = [
    ("fast", TierId::FAST),
    ("fastmem", TierId::FAST),
    ("dram", TierId::FAST),
    ("slow", TierId::SLOW),
    ("slowmem", TierId::SLOW),
    ("nvm", TierId::SLOW),
];

impl TierNames {
    /// The legacy two-tier alias table.
    pub fn legacy() -> TierNames {
        TierNames {
            entries: LEGACY_ALIASES
                .iter()
                .map(|(n, t)| (n.to_string(), *t))
                .collect(),
            primary: vec!["fast".to_string(), "slow".to_string()],
        }
    }

    /// A table for a hierarchy's tier names in stack order (index 0 =
    /// topmost tier). Each tier also answers to `tier<index>`, and the
    /// legacy aliases keep resolving where they do not collide with a
    /// hierarchy name.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> TierNames {
        let mut entries: Vec<(String, TierId)> = Vec::new();
        let mut primary = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let id = TierId(u8::try_from(i).unwrap_or(u8::MAX));
            let lower = name.as_ref().to_ascii_lowercase();
            primary.push(lower.clone());
            entries.push((lower, id));
            entries.push((format!("tier{i}"), id));
        }
        for (alias, id) in LEGACY_ALIASES {
            if id.index() < names.len() && !entries.iter().any(|(n, _)| n == alias) {
                entries.push((alias.to_string(), id));
            }
        }
        TierNames { entries, primary }
    }

    /// Resolve a tier name, case-insensitively.
    pub fn resolve(&self, name: &str) -> Option<TierId> {
        let lower = name.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, t)| *t)
    }

    /// The primary tier names in stack order, as shown in errors.
    pub fn primary(&self) -> &[String] {
        &self.primary
    }
}

/// A plan-file parse or validation error, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// 1-based line number; 0 for document-level errors.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl PlanError {
    fn at(line: usize, reason: impl Into<String>) -> PlanError {
        PlanError {
            line,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "fault plan: {}", self.reason)
        } else {
            write!(f, "fault plan line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for PlanError {}

/// Errors from [`FaultPlan::load`].
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file's contents were not a valid plan.
    Parse(PlanError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "cannot read fault plan: {e}"),
            LoadError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<ParseError> for PlanError {
    fn from(e: ParseError) -> PlanError {
        PlanError::at(e.line, e.msg)
    }
}

/// Both front-ends produce this shape, then share the schema builder.
#[derive(Debug)]
struct RawPlan {
    top: Record,
    backoff: Option<Record>,
    events: Vec<Record>,
}

fn tier(e: &Record, tiers: &TierNames) -> Result<TierId, PlanError> {
    let (name, line) = e
        .str("tier")?
        .ok_or_else(|| PlanError::at(e.line, "missing required field `tier`"))?;
    tiers.resolve(name).ok_or_else(|| {
        PlanError::at(
            line,
            format!(
                "unknown tier `{name}` (expected one of: {})",
                tiers.primary().join(", ")
            ),
        )
    })
}

fn build(raw: RawPlan, tiers: &TierNames) -> Result<FaultPlan, PlanError> {
    raw.top.known_keys(&["seed"])?;
    let seed = raw.top.u64("seed")?.unwrap_or(0);
    let mut plan = FaultPlan::new(seed);
    if let Some(b) = &raw.backoff {
        b.known_keys(&["base_ns", "factor", "cap_ns", "max_retries"])?;
        let d = Backoff::default_policy();
        plan.backoff = Backoff {
            base_ns: b.f64("base_ns")?.unwrap_or(d.base_ns),
            factor: b.f64("factor")?.unwrap_or(d.factor),
            cap_ns: b.f64("cap_ns")?.unwrap_or(d.cap_ns),
            max_retries: b
                .u64("max_retries")?
                .map(|n| {
                    u32::try_from(n)
                        .map_err(|_| PlanError::at(b.line, "`max_retries` exceeds 32 bits"))
                })
                .transpose()?
                .unwrap_or(d.max_retries),
        };
    }
    for e in &raw.events {
        let (kind, kind_line) = e
            .str("kind")?
            .ok_or_else(|| PlanError::at(e.line, "event is missing `kind`"))?;
        let start_ns = e.u128("start_ns")?.unwrap_or(0);
        let end_ns = e.u128("end_ns")?.unwrap_or(u128::MAX);
        // Any event kind may carry a `tenant = "name"` scope; serve-mode
        // consumers narrow the plan per tenant, everything else ignores it.
        let tenant = match e.str("tenant")? {
            Some(("", line)) => return Err(PlanError::at(line, "`tenant` must not be empty")),
            other => other.map(|(name, _)| name.to_string()),
        };
        let event = match kind {
            "latency_spike" => {
                e.known_keys(&["kind", "tier", "start_ns", "end_ns", "factor", "tenant"])?;
                FaultEvent::LatencySpike {
                    tier: tier(e, tiers)?,
                    start_ns,
                    end_ns,
                    factor: e.require_f64("factor")?,
                }
            }
            "bandwidth_throttle" => {
                e.known_keys(&["kind", "tier", "start_ns", "end_ns", "factor", "tenant"])?;
                FaultEvent::BandwidthThrottle {
                    tier: tier(e, tiers)?,
                    start_ns,
                    end_ns,
                    factor: e.require_f64("factor")?,
                }
            }
            "capacity_shrink" => {
                e.known_keys(&["kind", "tier", "start_ns", "end_ns", "bytes", "tenant"])?;
                FaultEvent::CapacityShrink {
                    tier: tier(e, tiers)?,
                    start_ns,
                    end_ns,
                    bytes: e
                        .u64("bytes")?
                        .ok_or_else(|| PlanError::at(e.line, "missing required field `bytes`"))?,
                }
            }
            "migration_failure" => {
                e.known_keys(&["kind", "start_ns", "end_ns", "probability", "tenant"])?;
                FaultEvent::MigrationFailure {
                    start_ns,
                    end_ns,
                    probability: e.require_f64("probability")?,
                }
            }
            "shard_crash" => {
                e.known_keys(&[
                    "kind",
                    "shard",
                    "at_ns",
                    "restart_ns",
                    "rebuild_ns_per_key",
                    "tenant",
                ])?;
                FaultEvent::ShardCrash {
                    shard: e
                        .u64("shard")?
                        .ok_or_else(|| PlanError::at(e.line, "missing required field `shard`"))?
                        as usize,
                    at_ns: e
                        .u128("at_ns")?
                        .ok_or_else(|| PlanError::at(e.line, "missing required field `at_ns`"))?,
                    restart_ns: e.f64("restart_ns")?.unwrap_or(0.0),
                    rebuild_ns_per_key: e.f64("rebuild_ns_per_key")?.unwrap_or(0.0),
                }
            }
            "torn_write" => {
                e.known_keys(&["kind", "start_ns", "end_ns", "tenant"])?;
                FaultEvent::TornWrite { start_ns, end_ns }
            }
            "bit_flip" => {
                e.known_keys(&["kind", "start_ns", "end_ns", "tenant"])?;
                FaultEvent::BitFlip { start_ns, end_ns }
            }
            "fsync_fail" => {
                e.known_keys(&["kind", "start_ns", "end_ns", "tenant"])?;
                FaultEvent::FsyncFail { start_ns, end_ns }
            }
            "dump_corrupt" => {
                e.known_keys(&["kind", "start_ns", "end_ns", "tenant"])?;
                FaultEvent::DumpCorrupt { start_ns, end_ns }
            }
            other => {
                return Err(PlanError::at(
                    kind_line,
                    format!("unknown event kind `{other}`"),
                ))
            }
        };
        if let Some(name) = tenant {
            plan.tenant_scope.push((plan.events.len(), name));
        }
        plan.events.push(event);
    }
    plan.validate().map_err(|reason| PlanError::at(0, reason))?;
    Ok(plan)
}

fn parse_toml(text: &str) -> Result<RawPlan, PlanError> {
    let doc = toml::parse(text)?;
    let mut backoff = None;
    for table in doc.tables {
        if table.name != "backoff" {
            return Err(PlanError::at(
                table.line,
                format!("unknown section `[{}]`", table.name),
            ));
        }
        backoff = Some(table);
    }
    if let Some(entry) = doc
        .arrays
        .iter()
        .find(|a| !matches!(a.name.as_str(), "event" | "events"))
    {
        return Err(PlanError::at(
            entry.line,
            format!("unknown array table `[[{}]]`", entry.name),
        ));
    }
    Ok(RawPlan {
        top: doc.top,
        backoff,
        events: doc.arrays,
    })
}

/// A JSON member value as a scalar.
fn json_scalar(key: &str, value: Json, line: usize) -> Result<Value, PlanError> {
    match value {
        Json::Str(s) => Ok(Value::Str(s)),
        Json::Bool(b) => Ok(Value::Bool(b)),
        Json::Num(raw) => Value::number(&raw)
            .ok_or_else(|| PlanError::at(line, format!("cannot parse number `{raw}`"))),
        Json::Null | Json::Arr(_) | Json::Obj(_) => Err(PlanError::at(
            line,
            format!("`{key}` must be a scalar in this position"),
        )),
    }
}

/// A JSON object of scalars as a record; `lines` yields each member's
/// line in document order.
fn json_record(
    name: &str,
    members: Vec<(String, Json)>,
    line: usize,
    lines: &mut impl Iterator<Item = usize>,
) -> Result<Record, PlanError> {
    let mut record = Record::new(name, line);
    for (key, value) in members {
        let l = lines.next().unwrap_or(line);
        let scalar = json_scalar(&key, value, l)?;
        record.insert(key, scalar, l)?;
    }
    Ok(record)
}

fn parse_json(text: &str) -> Result<RawPlan, PlanError> {
    let (doc, lines) = json::parse_with_lines(text)?;
    let mut lines = lines.into_iter();
    let root_line = lines.next().unwrap_or(1);
    let Json::Obj(members) = doc else {
        return Err(PlanError::at(root_line, "a JSON plan must be an object"));
    };
    let mut raw = RawPlan {
        top: Record::new("", 0),
        backoff: None,
        events: Vec::new(),
    };
    for (key, value) in members {
        let line = lines.next().unwrap_or(root_line);
        match (key.as_str(), value) {
            ("seed", value) => {
                let seed = json_scalar("seed", value, line)?;
                raw.top.insert(key, seed, line)?;
            }
            ("backoff", Json::Obj(f)) => {
                raw.backoff = Some(json_record("backoff", f, line, &mut lines)?)
            }
            ("events" | "event", Json::Arr(items)) => {
                for item in items {
                    let item_line = lines.next().unwrap_or(line);
                    match item {
                        Json::Obj(f) => raw
                            .events
                            .push(json_record("event", f, item_line, &mut lines)?),
                        _ => return Err(PlanError::at(item_line, "events must be objects")),
                    }
                }
            }
            (k, _) => {
                return Err(PlanError::at(
                    line,
                    format!("unknown or malformed top-level field `{k}`"),
                ))
            }
        }
    }
    Ok(raw)
}

// -------------------------------------------------------------- facade --

impl FaultPlan {
    /// Parse a plan from the TOML subset (`seed`, `[backoff]`,
    /// `[[event]]` tables of scalars), resolving tier names with the
    /// legacy two-tier aliases.
    pub fn parse_toml(text: &str) -> Result<FaultPlan, PlanError> {
        FaultPlan::parse_toml_with(text, &TierNames::legacy())
    }

    /// Parse the TOML subset with a custom tier-name table (hierarchy
    /// tier names resolve to their stack indices).
    pub fn parse_toml_with(text: &str, tiers: &TierNames) -> Result<FaultPlan, PlanError> {
        build(parse_toml(text)?, tiers)
    }

    /// Parse a plan from the JSON subset (`{"seed", "backoff", "events"}`).
    pub fn parse_json(text: &str) -> Result<FaultPlan, PlanError> {
        FaultPlan::parse_json_with(text, &TierNames::legacy())
    }

    /// Parse the JSON subset with a custom tier-name table.
    pub fn parse_json_with(text: &str, tiers: &TierNames) -> Result<FaultPlan, PlanError> {
        build(parse_json(text)?, tiers)
    }

    /// Parse either format, sniffed from the first non-space character.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        FaultPlan::parse_with(text, &TierNames::legacy())
    }

    /// Parse either format with a custom tier-name table.
    pub fn parse_with(text: &str, tiers: &TierNames) -> Result<FaultPlan, PlanError> {
        if text.trim_start().starts_with('{') {
            FaultPlan::parse_json_with(text, tiers)
        } else {
            FaultPlan::parse_toml_with(text, tiers)
        }
    }

    /// Load a plan file (`.json` forces JSON; anything else is sniffed).
    pub fn load(path: &std::path::Path) -> Result<FaultPlan, LoadError> {
        FaultPlan::load_with(path, &TierNames::legacy())
    }

    /// Load a plan file with a custom tier-name table, so plans can
    /// reference the tiers of a loaded hierarchy by name.
    pub fn load_with(path: &std::path::Path, tiers: &TierNames) -> Result<FaultPlan, LoadError> {
        let text = std::fs::read_to_string(path).map_err(LoadError::Io)?;
        let plan = if path.extension().is_some_and(|e| e == "json") {
            FaultPlan::parse_json_with(&text, tiers)
        } else {
            FaultPlan::parse_with(&text, tiers)
        };
        plan.map_err(LoadError::Parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML_PLAN: &str = r#"
# a representative plan
seed = 42

[backoff]
base_ns = 500
factor = 2.0
cap_ns = 8_000
max_retries = 3

[[event]]
kind = "latency_spike"
tier = "slow"          # the NVM side
start_ns = 0
end_ns = 1000000
factor = 3.0

[[event]]
kind = "bandwidth_throttle"
tier = "slow"
start_ns = 250000
end_ns = 750000
factor = 0.25

[[event]]
kind = "capacity_shrink"
tier = "fast"
start_ns = 100
bytes = 1048576

[[event]]
kind = "migration_failure"
start_ns = 0
end_ns = 500000
probability = 0.5

[[event]]
kind = "shard_crash"
shard = 1
at_ns = 300000
restart_ns = 50000
rebuild_ns_per_key = 120.5
"#;

    const JSON_PLAN: &str = r#"{
  "seed": 42,
  "backoff": {"base_ns": 500, "factor": 2.0, "cap_ns": 8000, "max_retries": 3},
  "events": [
    {"kind": "latency_spike", "tier": "slow", "start_ns": 0, "end_ns": 1000000, "factor": 3.0},
    {"kind": "bandwidth_throttle", "tier": "slow", "start_ns": 250000, "end_ns": 750000, "factor": 0.25},
    {"kind": "capacity_shrink", "tier": "fast", "start_ns": 100, "bytes": 1048576},
    {"kind": "migration_failure", "start_ns": 0, "end_ns": 500000, "probability": 0.5},
    {"kind": "shard_crash", "shard": 1, "at_ns": 300000, "restart_ns": 50000, "rebuild_ns_per_key": 120.5}
  ]
}"#;

    #[test]
    fn toml_and_json_parse_to_the_same_plan() {
        let toml = FaultPlan::parse_toml(TOML_PLAN).unwrap();
        let json = FaultPlan::parse_json(JSON_PLAN).unwrap();
        assert_eq!(toml, json);
        assert_eq!(toml.seed, 42);
        assert_eq!(toml.backoff.max_retries, 3);
        assert_eq!(toml.events.len(), 5);
        assert!(matches!(
            toml.events[2],
            FaultEvent::CapacityShrink {
                tier: TierId::FAST,
                start_ns: 100,
                end_ns: u128::MAX,
                bytes: 1_048_576,
            }
        ));
    }

    #[test]
    fn storage_fault_kinds_parse_from_toml_and_json() {
        let toml = r#"
seed = 9

[[event]]
kind = "torn_write"
start_ns = 1000
end_ns = 2000

[[event]]
kind = "bit_flip"
start_ns = 0
end_ns = 500

[[event]]
kind = "fsync_fail"
start_ns = 100
end_ns = 200

[[event]]
kind = "dump_corrupt"
start_ns = 300
"#;
        let json = r#"{
  "seed": 9,
  "events": [
    {"kind": "torn_write", "start_ns": 1000, "end_ns": 2000},
    {"kind": "bit_flip", "start_ns": 0, "end_ns": 500},
    {"kind": "fsync_fail", "start_ns": 100, "end_ns": 200},
    {"kind": "dump_corrupt", "start_ns": 300}
  ]
}"#;
        let plan = FaultPlan::parse_toml(toml).unwrap();
        assert_eq!(plan, FaultPlan::parse_json(json).unwrap());
        assert_eq!(plan.events.len(), 4);
        assert!(matches!(
            plan.events[0],
            FaultEvent::TornWrite {
                start_ns: 1_000,
                end_ns: 2_000,
            }
        ));
        assert!(matches!(
            plan.events[3],
            FaultEvent::DumpCorrupt {
                start_ns: 300,
                end_ns: u128::MAX,
            }
        ));
        assert!(plan.events.iter().all(FaultEvent::is_storage));
        // Unknown fields are still rejected with their line number.
        let bad =
            "seed = 1\n\n[[event]]\nkind = \"torn_write\"\nstart_ns = 0\nend_ns = 5\nshard = 1\n";
        let err = FaultPlan::parse_toml(bad).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(
            err.reason.contains("unknown field `shard`"),
            "{}",
            err.reason
        );
    }

    #[test]
    fn hierarchy_names_resolve_with_positional_and_legacy_aliases() {
        let tiers = TierNames::from_names(&["DRAM", "optane", "ssd"]);
        // Hierarchy names, case-insensitively.
        assert_eq!(tiers.resolve("dram"), Some(TierId(0)));
        assert_eq!(tiers.resolve("Optane"), Some(TierId(1)));
        assert_eq!(tiers.resolve("SSD"), Some(TierId(2)));
        // Positional forms.
        assert_eq!(tiers.resolve("tier0"), Some(TierId(0)));
        assert_eq!(tiers.resolve("tier2"), Some(TierId(2)));
        // Non-colliding legacy aliases still work ("dram" is taken by
        // the hierarchy itself, and resolves to the same tier here).
        assert_eq!(tiers.resolve("fast"), Some(TierId::FAST));
        assert_eq!(tiers.resolve("slowmem"), Some(TierId::SLOW));
        assert_eq!(tiers.resolve("warp"), None);
        assert_eq!(tiers.primary(), &["dram", "optane", "ssd"]);
    }

    #[test]
    fn legacy_aliases_never_point_past_the_hierarchy() {
        let tiers = TierNames::from_names(&["only"]);
        assert_eq!(tiers.resolve("only"), Some(TierId(0)));
        assert_eq!(tiers.resolve("fast"), Some(TierId(0)));
        // "slow" would name tier 1, which this one-tier hierarchy lacks.
        assert_eq!(tiers.resolve("slow"), None);
    }

    #[test]
    fn plans_accept_hierarchy_tier_names() {
        let text = r#"
seed = 1

[[event]]
kind = "latency_spike"
tier = "optane"
start_ns = 0
end_ns = 10
factor = 2.0
"#;
        let tiers = TierNames::from_names(&["dram", "optane", "ssd"]);
        let plan = FaultPlan::parse_toml_with(text, &tiers).unwrap();
        assert!(matches!(
            plan.events[0],
            FaultEvent::LatencySpike {
                tier: TierId(1),
                ..
            }
        ));
    }

    #[test]
    fn unknown_tier_name_errors_with_line_and_known_names() {
        let text = r#"
seed = 1

[[event]]
kind = "latency_spike"
tier = "l2"
start_ns = 0
end_ns = 10
factor = 2.0
"#;
        let tiers = TierNames::from_names(&["dram", "optane", "ssd"]);
        let err = FaultPlan::parse_toml_with(text, &tiers).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.reason.contains("unknown tier `l2`"), "{}", err.reason);
        assert!(err.reason.contains("dram, optane, ssd"), "{}", err.reason);
    }

    #[test]
    fn sniffing_dispatches_by_first_character() {
        assert_eq!(
            FaultPlan::parse(TOML_PLAN).unwrap(),
            FaultPlan::parse(JSON_PLAN).unwrap()
        );
    }

    #[test]
    fn empty_plan_is_valid_and_empty() {
        let plan = FaultPlan::parse_toml("seed = 9\n").unwrap();
        assert_eq!(plan.seed, 9);
        assert!(plan.is_empty());
        assert_eq!(plan.backoff, Backoff::default_policy());
        let plan = FaultPlan::parse_json("{}").unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = FaultPlan::parse_toml("seed = 1\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = FaultPlan::parse_toml("[[event]]\nkind = \"latency_spike\"\n").unwrap_err();
        assert!(err.reason.contains("tier"), "{err}");
        let err =
            FaultPlan::parse_toml("[[event]]\nkind = \"warp_drive\"\ntier = \"fast\"").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("warp_drive"));
        let err = FaultPlan::parse_json("{\n  \"seed\": 1,\n  \"events\": oops\n}").unwrap_err();
        assert_eq!(err.line, 3, "{err}");
    }

    #[test]
    fn unknown_fields_and_duplicates_are_rejected() {
        let err = FaultPlan::parse_toml("seed = 1\nseed = 2\n").unwrap_err();
        assert!(err.reason.contains("duplicate"), "{err}");
        let err = FaultPlan::parse_toml(
            "[[event]]\nkind = \"migration_failure\"\nprobability = 0.5\ntypo_field = 1\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.reason.contains("typo_field"));
    }

    #[test]
    fn tenant_key_scopes_events_in_both_formats() {
        let toml = FaultPlan::parse_toml(
            "[[event]]\nkind = \"shard_crash\"\nshard = 0\nat_ns = 100\ntenant = \"beta\"\n\
             \n[[event]]\nkind = \"migration_failure\"\nprobability = 0.2\nstart_ns = 0\nend_ns = 10\n",
        )
        .unwrap();
        let json = FaultPlan::parse_json(
            r#"{"events": [
                {"kind": "shard_crash", "shard": 0, "at_ns": 100, "tenant": "beta"},
                {"kind": "migration_failure", "probability": 0.2, "start_ns": 0, "end_ns": 10}
            ]}"#,
        )
        .unwrap();
        assert_eq!(toml, json);
        assert_eq!(toml.tenant_of(0), Some("beta"));
        assert_eq!(toml.tenant_of(1), None);
        assert_eq!(toml.for_tenant("beta").events.len(), 2);
        assert_eq!(toml.for_tenant("alpha").events.len(), 1);
    }

    #[test]
    fn corrupt_tenant_fields_are_rejected_with_line_numbers() {
        // Non-string tenant: typed error on the offending line.
        let err = FaultPlan::parse_toml(
            "[[event]]\nkind = \"migration_failure\"\nprobability = 0.2\ntenant = 5\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.reason.contains("must be a string"), "{err}");
        // Empty tenant name.
        let err = FaultPlan::parse_toml(
            "[[event]]\nkind = \"migration_failure\"\ntenant = \"\"\nprobability = 0.2\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.reason.contains("must not be empty"), "{err}");
        // Duplicate tenant key.
        let err = FaultPlan::parse_json(
            "{\"events\": [\n{\"kind\": \"migration_failure\", \"probability\": 0.2,\n\"tenant\": \"a\",\n\"tenant\": \"b\"}]}",
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.reason.contains("duplicate"), "{err}");
    }

    #[test]
    fn json_schema_errors_carry_the_member_line() {
        let text = "{\n  \"seed\": 1,\n  \"events\": [\n    {\"kind\": \"torn_write\",\n     \"shard\": 1}\n  ]\n}";
        let err = FaultPlan::parse_json(text).unwrap_err();
        assert_eq!(err.line, 5, "{err}");
        assert!(err.reason.contains("unknown field `shard`"), "{err}");
        let missing = "{\"events\": [\n\n  {\"kind\": \"latency_spike\"}]}";
        let err = FaultPlan::parse_json(missing).unwrap_err();
        assert_eq!(err.line, 3, "missing fields point at the event: {err}");
        let err = FaultPlan::parse_json("{\n\"backoff\": {\"factor\": [2]}}").unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.reason.contains("must be a scalar"), "{err}");
    }

    #[test]
    fn deep_json_nesting_is_a_located_error() {
        let text = format!(
            "{{\"v\":1,\"x\":{}{}}}",
            "[".repeat(50_000),
            "]".repeat(50_000)
        );
        let err = FaultPlan::parse_json(&text).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn semantic_validation_is_applied_after_parse() {
        let err =
            FaultPlan::parse_toml("[[event]]\nkind = \"migration_failure\"\nprobability = 1.5\n")
                .unwrap_err();
        assert!(err.reason.contains("probability"), "{err}");
    }

    #[test]
    fn load_distinguishes_io_from_parse_errors() {
        let missing = FaultPlan::load(std::path::Path::new("/definitely/not/here.toml"));
        assert!(matches!(missing, Err(LoadError::Io(_))));
        let dir = std::env::temp_dir().join("mnemo-faults-parse-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.toml");
        std::fs::write(&path, TOML_PLAN).unwrap();
        let plan = FaultPlan::load(&path).unwrap();
        assert_eq!(plan.seed, 42);
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        assert!(matches!(FaultPlan::load(&bad), Err(LoadError::Parse(_))));
    }
}
