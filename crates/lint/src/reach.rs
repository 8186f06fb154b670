//! The semantic rule family: facts reachable *through the call graph*.
//!
//! | code | roots | facts |
//! |------|-------|-------|
//! | D006 | `mnemo-par` pool-closure call sites | wall clock, entropy RNG, default hasher |
//! | D007 | `mnemo-par` pool-closure call sites | float reductions |
//! | R003 | `mnemo-serve` request/journal hot-path fns | `panic!` / `unwrap` / `expect` |
//! | C001 | every non-test fn | conflicting lock-acquisition orders |
//! | P001 | `hybridmem` per-request charge fns, `kvsim` engine request fns | heap allocation |
//!
//! Division of labor with the token rules: D001/D002/D004/R001 already
//! flag facts *lexically* at their own site, so D006/D007/R003 only
//! report facts found in **callees** (depth ≥ 1 below the root site) —
//! a finding here always names a call path the token pass cannot see.
//! P001 and C001 have no token-rule counterpart and include depth 0.
//!
//! Findings are **aggregated per root** and land on the root's line, so
//! one `mnemo-lint: allow` at the scheduling site / hot-path fn covers
//! everything reachable from it — the allow's justification then
//! documents why the whole subtree is sound, which is the reviewable
//! unit that matters.

use crate::diag::{Code, Finding};
use crate::graph::{crate_dir_of, FnId, Graph};
use crate::parser::{FactHit, FactKind, FileModel};
use std::collections::BTreeMap;

/// Call-graph walk depth cap. Deep enough for every real chain in the
/// workspace (longest today is ~6); bounds adversarial inputs.
pub const MAX_DEPTH: u32 = 16;

/// `mnemo-serve` request hot-path roots in `engine.rs`.
const SERVE_ENGINE_ROOTS: [&str; 8] = [
    "on_event",
    "advise",
    "demand",
    "advise_row",
    "ingest",
    "tick",
    "replan",
    "advise_now",
];
/// `mnemo-serve` journal hot-path roots in `journal.rs`.
const SERVE_JOURNAL_ROOTS: [&str; 6] = [
    "start_segment",
    "append",
    "rotate",
    "sync",
    "recover",
    "encode_record",
];
/// `hybridmem` per-request charge-path roots in `stack.rs`: the plain
/// charges (`access_at` and `touch_n` also name the paired walk's quote
/// lane) and the paired walk's LLC probe.
const HM_STACK_ROOTS: [&str; 4] = ["access", "access_at", "touch_n", "probe_llc"];
/// `hybridmem` per-request charge-path roots in `device.rs`.
const HM_DEVICE_ROOTS: [&str; 3] = ["access_ns", "quote_ns", "quote_ns_n"];
/// `kvsim` per-request charge-path roots in `engine.rs`.
const KV_ENGINE_ROOTS: [&str; 1] = ["charge_op"];
/// `kvsim` per-request roots in every `*_like.rs` store engine.
const KV_STORE_ROOTS: [&str; 3] = ["get", "put", "quote_pair"];

/// Run every workspace-level rule over the parsed models. `models`
/// must be sorted by path; findings come back in rule-then-site order
/// (the engine re-sorts globally).
pub fn workspace_rules(models: &[FileModel]) -> Vec<Finding> {
    let g = Graph::build(models);
    let mut out = Vec::new();
    pool_reach_rules(&g, &mut out);
    serve_panic_rule(&g, &mut out);
    lock_order_rule(&g, &mut out);
    alloc_reach_rule(&g, &mut out);
    out
}

/// Modules sanctioned to hold nondeterminism facts: the pool itself
/// (seeded per-worker state, D001-allowed timers) and the telemetry
/// wall-clock module the D001 policy already exempts.
fn sanctioned_nondet(path: &str) -> bool {
    path.starts_with("crates/par/") || path == "crates/telemetry/src/recorder.rs"
}

fn fact_noun(kind: FactKind) -> &'static str {
    match kind {
        FactKind::WallClock => "wall-clock read",
        FactKind::Entropy => "entropy-seeded RNG",
        FactKind::DefaultHasher => "default-hasher collection",
        FactKind::FloatReduction => "float reduction",
        FactKind::Panics => "panic site",
        FactKind::Alloc => "heap allocation",
    }
}

/// One reachable fact: where it is and how the walk got there.
struct Reached<'m> {
    hit: &'m FactHit,
    path: String,
    chain: Vec<String>,
}

/// Collect facts matching `want` in fns visited by `seen`, skipping
/// test fns, fns below `min_depth`, and (optionally) sanctioned
/// modules. Deterministic: `seen` is a BTreeMap over node ids, which
/// follow (file, fn) order.
fn collect<'m>(
    g: &Graph<'m>,
    seen: &BTreeMap<FnId, (u32, Option<FnId>)>,
    min_depth: u32,
    want: &[FactKind],
    skip_sanctioned: bool,
) -> Vec<Reached<'m>> {
    let mut out = Vec::new();
    for (&id, &(depth, _)) in seen {
        if depth < min_depth {
            continue;
        }
        let f = g.fn_of(id);
        if f.in_test {
            continue;
        }
        let path = g.path_of(id);
        if skip_sanctioned && sanctioned_nondet(path) {
            continue;
        }
        for hit in &f.facts {
            if want.contains(&hit.kind) {
                out.push(Reached {
                    hit,
                    path: path.to_string(),
                    chain: g.path_to(seen, id),
                });
            }
        }
    }
    // Order by site for stable "first example" selection.
    out.sort_by(|a, b| (&a.path, a.hit.line).cmp(&(&b.path, b.hit.line)));
    out
}

fn describe(reached: &[Reached], label: &str) -> String {
    let first = &reached[0];
    let via = first.chain.join(" -> ");
    let mut msg = format!(
        "{} ({}) at {}:{} reachable from {} via {}",
        fact_noun(first.hit.kind),
        first.hit.what,
        first.path,
        first.hit.line,
        label,
        via
    );
    if reached.len() > 1 {
        msg.push_str(&format!(" (+{} more reachable)", reached.len() - 1));
    }
    msg
}

/// D006 + D007: facts reachable from closures scheduled on the pool.
/// Depth 0 of the walk is already one call below the closure (the
/// closure's own body is covered lexically by D001/D002/D004).
fn pool_reach_rules(g: &Graph, out: &mut Vec<Finding>) {
    for (fi, fm) in g.models.iter().enumerate() {
        if crate_dir_of(&fm.path) == "par" {
            continue; // the pool's own internals schedule themselves
        }
        for (si, site) in fm.pool_sites.iter().enumerate() {
            if site.in_test {
                continue;
            }
            let roots = &g.site_roots[fi][si];
            if roots.is_empty() {
                continue;
            }
            let seen = g.reach(roots, MAX_DEPTH);
            let label = format!("pool closure `{}`", site.method);
            let nondet = collect(
                g,
                &seen,
                0,
                &[
                    FactKind::WallClock,
                    FactKind::Entropy,
                    FactKind::DefaultHasher,
                ],
                true,
            );
            if !nondet.is_empty() {
                out.push(Finding {
                    code: Code::D006,
                    file: fm.path.clone(),
                    line: site.line,
                    col: site.col,
                    message: describe(&nondet, &label),
                });
            }
            let floats = collect(g, &seen, 0, &[FactKind::FloatReduction], true);
            if !floats.is_empty() {
                out.push(Finding {
                    code: Code::D007,
                    file: fm.path.clone(),
                    line: site.line,
                    col: site.col,
                    message: describe(&floats, &label),
                });
            }
        }
    }
}

/// R003: panics reachable from the serve hot paths. Depth ≥ 1 only —
/// a panic in the hot-path fn itself is R001's finding.
fn serve_panic_rule(g: &Graph, out: &mut Vec<Finding>) {
    for id in 0..g.nodes.len() {
        let f = g.fn_of(id);
        let path = g.path_of(id);
        if f.in_test || crate_dir_of(path) != "serve" {
            continue;
        }
        let is_root = (path.ends_with("/engine.rs")
            && SERVE_ENGINE_ROOTS.contains(&f.name.as_str()))
            || (path.ends_with("/journal.rs") && SERVE_JOURNAL_ROOTS.contains(&f.name.as_str()));
        if !is_root {
            continue;
        }
        let seen = g.reach(&[id], MAX_DEPTH);
        let panics = collect(g, &seen, 1, &[FactKind::Panics], false);
        if !panics.is_empty() {
            out.push(Finding {
                code: Code::R003,
                file: path.to_string(),
                line: f.line,
                col: f.col,
                message: describe(&panics, &format!("serve hot path `{}`", f.name)),
            });
        }
    }
}

/// Is `name` in `path` a per-request charge-path root of P001?
fn is_charge_root(path: &str, name: &str) -> bool {
    match crate_dir_of(path) {
        "hybridmem" => {
            (path.ends_with("/stack.rs") && HM_STACK_ROOTS.contains(&name))
                || (path.ends_with("/device.rs") && HM_DEVICE_ROOTS.contains(&name))
        }
        "kvsim" => {
            (path.ends_with("/engine.rs") && KV_ENGINE_ROOTS.contains(&name))
                || (path.ends_with("_like.rs") && KV_STORE_ROOTS.contains(&name))
        }
        _ => false,
    }
}

/// P001: heap allocation reachable from the hybridmem charge paths and
/// the kvsim engines' request paths, including the root's own body (no
/// token rule covers allocation).
fn alloc_reach_rule(g: &Graph, out: &mut Vec<Finding>) {
    for id in 0..g.nodes.len() {
        let f = g.fn_of(id);
        if f.in_test || !is_charge_root(g.path_of(id), &f.name) {
            continue;
        }
        let path = g.path_of(id);
        let seen = g.reach(&[id], MAX_DEPTH);
        let allocs = collect(g, &seen, 0, &[FactKind::Alloc], false);
        if !allocs.is_empty() {
            out.push(Finding {
                code: Code::P001,
                file: path.to_string(),
                line: f.line,
                col: f.col,
                message: describe(&allocs, &format!("charge path `{}`", f.name)),
            });
        }
    }
}

/// C001: two call paths that acquire the same pair of locks in
/// opposite orders *while the first is held*. "Held" is the lexical
/// guard-lives-to-end-of-scope approximation the parser records
/// ([`crate::parser::LockAcq::held_until`]): sequential acquisitions in
/// disjoint blocks (e.g. a loop locking each shard in turn) do not
/// pair. Receivers are *names* (`self.inner.lock()` → `inner`), so
/// distinct fields sharing a name alias — a deliberate
/// over-approximation for a lightweight detector.
fn lock_order_rule(g: &Graph, out: &mut Vec<Finding>) {
    // Witness per ordered pair (a, b): first site that acquires b
    // (directly or through a call) while holding a.
    type Witness = (String, u32, String, u32, String); // file_a, line_a, file_b, line_b, fn
    let mut pairs: BTreeMap<(String, String), Witness> = BTreeMap::new();
    // Memoized transitive lock closure per fn: receiver → first site.
    let mut closures: Vec<Option<BTreeMap<String, (String, u32)>>> = vec![None; g.nodes.len()];
    for id in 0..g.nodes.len() {
        let f = g.fn_of(id);
        if f.in_test || f.locks.is_empty() {
            continue;
        }
        // Walk body events in order, tracking which guards are live.
        let mut events: Vec<(u32, Result<usize, usize>)> = Vec::new();
        for (i, l) in f.locks.iter().enumerate() {
            events.push((l.order, Ok(i)));
        }
        for (i, c) in f.calls.iter().enumerate() {
            events.push((c.order, Err(i)));
        }
        events.sort_by_key(|&(o, _)| o);
        let path = g.path_of(id);
        let mut held: Vec<usize> = Vec::new(); // indexes into f.locks
        for (order, ev) in events {
            held.retain(|&li| f.locks[li].held_until >= order);
            match ev {
                Ok(li) => {
                    let b = &f.locks[li];
                    for &ai in &held {
                        let a = &f.locks[ai];
                        if a.receiver == b.receiver {
                            continue;
                        }
                        pairs
                            .entry((a.receiver.clone(), b.receiver.clone()))
                            .or_insert_with(|| {
                                (
                                    path.to_string(),
                                    a.line,
                                    path.to_string(),
                                    b.line,
                                    g.display(id),
                                )
                            });
                    }
                    held.push(li);
                }
                Err(ci) => {
                    if held.is_empty() {
                        continue;
                    }
                    let node = &g.nodes[id];
                    let targets = g.resolve(node.file, &node.crate_dir, &f.calls[ci]);
                    for &t in targets.iter().take(2) {
                        if t == id {
                            continue;
                        }
                        let callee_locks = lock_closure(g, t, &mut closures);
                        for (recv, (bf, bl)) in &callee_locks {
                            for &ai in &held {
                                let a = &f.locks[ai];
                                if &a.receiver == recv {
                                    continue;
                                }
                                pairs
                                    .entry((a.receiver.clone(), recv.clone()))
                                    .or_insert_with(|| {
                                        (path.to_string(), a.line, bf.clone(), *bl, g.display(id))
                                    });
                            }
                        }
                    }
                }
            }
        }
    }
    let mut emitted = Vec::new();
    for ((a, b), w_ab) in &pairs {
        if a >= b {
            continue; // visit each unordered pair once, (a<b)
        }
        let Some(w_ba) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        emitted.push(((a.clone(), b.clone()), w_ab.clone(), w_ba.clone()));
    }
    for ((a, b), w_ab, w_ba) in emitted {
        // Anchor the finding at the lexicographically first witness.
        let (anchor, other, first_order) = if (&w_ab.0, w_ab.1) <= (&w_ba.0, w_ba.1) {
            (&w_ab, &w_ba, true)
        } else {
            (&w_ba, &w_ab, false)
        };
        let (x, y) = if first_order { (&a, &b) } else { (&b, &a) };
        out.push(Finding {
            code: Code::C001,
            file: anchor.0.clone(),
            line: anchor.1,
            col: 1,
            message: format!(
                "lock `{x}` held while `{y}` is acquired in {} ({}:{}), but `{y}` held while \
                 `{x}` is acquired in {} ({}:{})",
                anchor.4, anchor.0, anchor.1, other.4, other.0, other.1
            ),
        });
    }
}

/// All lock receivers transitively acquired by `id` (depth-capped BFS
/// over the call graph), mapped to the first site each was seen at.
/// Memoized per node — the map is small and reused across callers.
fn lock_closure(
    g: &Graph,
    id: FnId,
    memo: &mut [Option<BTreeMap<String, (String, u32)>>],
) -> BTreeMap<String, (String, u32)> {
    if let Some(m) = &memo[id] {
        return m.clone();
    }
    let mut acc = BTreeMap::new();
    let seen = g.reach(&[id], 4);
    for &t in seen.keys() {
        let f = g.fn_of(t);
        if f.in_test {
            continue;
        }
        for l in &f.locks {
            acc.entry(l.receiver.clone())
                .or_insert_with(|| (g.path_of(t).to_string(), l.line));
        }
    }
    memo[id] = Some(acc.clone());
    acc
}

/// Full workspace-rule fixture support: the engine calls
/// [`workspace_rules`]; everything else here is internal.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_region_mask;
    use crate::lexer::{lex, TokenKind};
    use crate::parser::parse_file;

    fn model(path: &str, src: &str) -> FileModel {
        let all = lex(src);
        let mask = test_region_mask(src, &all);
        let mut tokens = Vec::new();
        let mut in_test = Vec::new();
        for (t, m) in all.into_iter().zip(mask) {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                tokens.push(t);
                in_test.push(m);
            }
        }
        parse_file(path, src, &tokens, &in_test)
    }

    fn codes(findings: &[Finding]) -> Vec<Code> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn d006_catches_wall_clock_two_calls_below_a_pool_closure() {
        let models = vec![model(
            "crates/core/src/curve.rs",
            "fn build(pool: &Pool) {\n    pool.map_chunked(16, |i| step(i));\n}\n\
             fn step(i: usize) -> u64 { stamp() + i as u64 }\n\
             fn stamp() -> u64 { let t = Instant::now(); 0 }\n",
        )];
        let f = workspace_rules(&models);
        assert_eq!(codes(&f), vec![Code::D006]);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("step"), "{}", f[0].message);
        assert!(f[0].message.contains("stamp"), "{}", f[0].message);
    }

    #[test]
    fn d006_ignores_facts_lexically_inside_the_closure() {
        // Depth-0-in-closure is D001's job; no D006.
        let models = vec![model(
            "crates/core/src/curve.rs",
            "fn build(pool: &Pool) {\n    pool.map_chunked(16, |i| Instant::now());\n}\n",
        )];
        assert!(workspace_rules(&models).is_empty());
    }

    #[test]
    fn d007_catches_reachable_float_reduction() {
        let models = vec![model(
            "crates/core/src/curve.rs",
            "fn build(pool: &Pool) {\n    pool.map(|i| reduce(i));\n}\n\
             fn reduce(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
        )];
        let f = workspace_rules(&models);
        assert_eq!(codes(&f), vec![Code::D007]);
    }

    #[test]
    fn r003_catches_panic_below_serve_hot_path_but_not_in_it() {
        let models = vec![model(
            "crates/serve/src/engine.rs",
            "fn ingest(line: &str) {\n    parse_row(line);\n}\n\
             fn parse_row(line: &str) -> u64 { line.parse().unwrap() }\n",
        )];
        let f = workspace_rules(&models);
        assert_eq!(codes(&f), vec![Code::R003]);
        assert_eq!(f[0].line, 1);
        // Depth-0 panic is R001's finding, not R003's.
        let depth0 = vec![model(
            "crates/serve/src/engine.rs",
            "fn ingest(line: &str) { line.parse::<u64>().unwrap(); }\n",
        )];
        assert!(workspace_rules(&depth0).is_empty());
    }

    #[test]
    fn p001_catches_alloc_on_charge_path_including_depth_zero() {
        let models = vec![model(
            "crates/hybridmem/src/stack.rs",
            "impl System {\n    fn access(&mut self, k: u64) {\n        let label = format!(\"{k}\");\n    }\n}\n",
        )];
        let f = workspace_rules(&models);
        assert_eq!(codes(&f), vec![Code::P001]);
    }

    #[test]
    fn p001_roots_cover_kvsim_request_paths() {
        let alloc_body = "{\n        let v = vec![k];\n    }\n";
        for (path, name) in [
            ("crates/kvsim/src/engine.rs", "charge_op"),
            ("crates/kvsim/src/redis_like.rs", "get"),
            ("crates/kvsim/src/memcached_like.rs", "put"),
            ("crates/kvsim/src/dynamo_like.rs", "get"),
            ("crates/kvsim/src/rocks_like.rs", "put"),
        ] {
            let src = format!("impl E {{\n    fn {name}(&mut self, k: u64) {alloc_body}}}\n");
            let f = workspace_rules(&[model(path, &src)]);
            assert_eq!(codes(&f), vec![Code::P001], "{path}::{name}");
            assert!(f[0].message.contains(name), "{}", f[0].message);
        }
        // The same fns elsewhere, and other fns of the engines, are no roots.
        for (path, name) in [
            ("crates/kvsim/src/server.rs", "get"),
            ("crates/kvsim/src/redis_like.rs", "load"),
            ("crates/kvsim/src/engine.rs", "get"),
            ("crates/serve/src/redis_like.rs", "get"),
        ] {
            let src = format!("impl E {{\n    fn {name}(&mut self, k: u64) {alloc_body}}}\n");
            assert!(
                workspace_rules(&[model(path, &src)]).is_empty(),
                "{path}::{name}"
            );
        }
    }

    #[test]
    fn p001_roots_cover_the_paired_charge_path() {
        let alloc_body = "{\n        let v = vec![k];\n    }\n";
        for (path, name) in [
            ("crates/hybridmem/src/stack.rs", "probe_llc"),
            ("crates/hybridmem/src/device.rs", "quote_ns"),
            ("crates/hybridmem/src/device.rs", "quote_ns_n"),
            ("crates/kvsim/src/redis_like.rs", "quote_pair"),
            ("crates/kvsim/src/memcached_like.rs", "quote_pair"),
            ("crates/kvsim/src/dynamo_like.rs", "quote_pair"),
            ("crates/kvsim/src/rocks_like.rs", "quote_pair"),
        ] {
            let src = format!("impl E {{\n    fn {name}(&mut self, k: u64) {alloc_body}}}\n");
            let f = workspace_rules(&[model(path, &src)]);
            assert_eq!(codes(&f), vec![Code::P001], "{path}::{name}");
            assert!(f[0].message.contains(name), "{}", f[0].message);
        }
        // An engine quote is followed through the shared formula into
        // the stack's quote lane.
        let models = vec![
            model(
                "crates/hybridmem/src/stack.rs",
                "impl ChargeLanes for Quote {\n    fn quote_lane(self, k: u64) -> Vec<u64> { vec![k] }\n}\n",
            ),
            model(
                "crates/kvsim/src/dynamo_like.rs",
                "impl DynamoLike {\n    fn quote_pair(&mut self, k: u64) {\n        \
                 self.serve(k);\n    }\n    fn serve(&mut self, k: u64) {\n        \
                 self.lanes.quote_lane(k);\n    }\n}\n",
            ),
        ];
        let f = workspace_rules(&models);
        assert_eq!(codes(&f), vec![Code::P001]);
        assert_eq!(f[0].file, "crates/kvsim/src/dynamo_like.rs");
        assert!(f[0].message.contains("quote_lane"), "{}", f[0].message);
    }

    #[test]
    fn p001_follows_engine_calls_into_the_core() {
        let models = vec![
            model(
                "crates/kvsim/src/engine.rs",
                "impl EngineCore {\n    fn charge_op(&mut self, k: u64) -> u64 { k }\n    \
                 fn lookup(&self, k: u64) -> Vec<u64> { vec![k] }\n}\n",
            ),
            model(
                "crates/kvsim/src/redis_like.rs",
                "impl RedisLike {\n    fn get(&mut self, k: u64) {\n        \
                 self.core.lookup(k);\n    }\n}\n",
            ),
        ];
        let f = workspace_rules(&models);
        assert_eq!(codes(&f), vec![Code::P001]);
        assert_eq!(f[0].file, "crates/kvsim/src/redis_like.rs");
        assert!(f[0].message.contains("lookup"), "{}", f[0].message);
    }

    #[test]
    fn c001_flags_opposite_lock_orders() {
        let models = vec![model(
            "crates/serve/src/state.rs",
            "fn fwd(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
             fn rev(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n",
        )];
        let f = workspace_rules(&models);
        assert_eq!(codes(&f), vec![Code::C001]);
        assert!(f[0].message.contains("alpha"), "{}", f[0].message);
        assert!(f[0].message.contains("beta"));
    }

    #[test]
    fn c001_consistent_order_is_clean() {
        let models = vec![model(
            "crates/serve/src/state.rs",
            "fn one(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n\
             fn two(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n",
        )];
        assert!(workspace_rules(&models).is_empty());
    }

    #[test]
    fn test_region_facts_do_not_fire() {
        let models = vec![model(
            "crates/serve/src/engine.rs",
            "fn ingest(line: &str) { helper(line); }\nfn helper(_l: &str) {}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        )];
        assert!(workspace_rules(&models).is_empty());
    }
}
