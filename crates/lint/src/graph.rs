//! Workspace symbol table + cross-crate call graph.
//!
//! Takes the per-file [`crate::parser::FileModel`]s and resolves their
//! call references into edges between function nodes, using:
//!
//! * the file's `use` declarations (leaf name → full path),
//! * crate paths (`mnemo_par::…`, `crate::…`, `hybridmem::…`) mapped to
//!   crate directories under `crates/`,
//! * `Type::method` qualification matched against `impl` blocks, and
//! * same-file / same-crate scope for bare calls.
//!
//! Resolution is deliberately an *over*-approximation where Rust's
//! name resolution needs types we don't have: an unqualified method
//! call `.advise(…)` links to every `fn advise` with a `self` receiver
//! defined in an `impl` anywhere in the workspace (an associated fn
//! without one is reachable only through a path such as `Type::open`).
//! To keep that tractable, method names from the std prelude/iterator
//! vocabulary ([`METHOD_SKIP`]) never resolve unqualified — `xs.map(f)`
//! must not link to `Pool::map`.
//! Unknown paths (`std::…`, vendored externals) resolve to nothing.
//!
//! Everything is index-based and iteration-ordered off sorted inputs,
//! so edge lists — and every reachability walk over them — are
//! deterministic.

use crate::parser::{CallRef, FileModel, FnInfo};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Index of a function node in [`Graph::nodes`].
pub type FnId = usize;

/// One function node: a `(file, fn)` coordinate plus its crate.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into the model slice the graph was built from.
    pub file: usize,
    /// Index into that file's `fns`.
    pub idx: usize,
    /// Crate directory under `crates/` (e.g. `serve`), or `""`.
    pub crate_dir: String,
}

/// The resolved workspace call graph over a slice of file models.
pub struct Graph<'m> {
    /// The file models the graph indexes into.
    pub models: &'m [FileModel],
    /// Flat function nodes, in (file, fn) order.
    pub nodes: Vec<Node>,
    /// Sorted, deduplicated adjacency: `edges[f]` = callees of `f`.
    pub edges: Vec<Vec<FnId>>,
    /// Per file, per pool site: the resolved roots of the site's calls.
    pub site_roots: Vec<Vec<Vec<FnId>>>,
    by_method: BTreeMap<String, Vec<FnId>>,
    by_crate_fn: BTreeMap<(String, String), Vec<FnId>>,
    by_type_method: BTreeMap<(String, String), Vec<FnId>>,
    crate_dirs: BTreeSet<String>,
}

/// Method names that never resolve unqualified: std-prelude, iterator,
/// collection, string, and numeric vocabulary whose receivers are
/// almost never workspace types. A workspace method that shares one of
/// these names is still reachable through `Type::name(…)` or a path
/// call — and through pool-site roots, which resolve before this list
/// applies.
pub const METHOD_SKIP: [&str; 97] = [
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "binary_search",
    "bytes",
    "ceil",
    "chain",
    "chars",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "exp",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "ln",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "ok",
    "parse",
    "partial_cmp",
    "position",
    "pow",
    "powf",
    "powi",
    "product",
    "push",
    "read",
    "remove",
    "resize",
    "retain",
    "rev",
    "reverse",
    "round",
    "skip",
    "sort",
    "splice",
    "split",
    "sqrt",
    "starts_with",
    "step_by",
    "sum",
    "take",
    "trim",
    "truncate",
    "values",
    "windows",
    "write",
    "zip",
];

/// Prefix variants the skip list covers via `starts_with` checks —
/// `sort_by`, `unwrap_or_else`, `to_le_bytes`, `saturating_sub`, … all
/// share these stems.
const METHOD_SKIP_PREFIXES: [&str; 12] = [
    "sort_",
    "unwrap",
    "expect",
    "to_",
    "from_",
    "max_by",
    "min_by",
    "saturating_",
    "wrapping_",
    "split_",
    "strip_",
    "ends_",
];

/// Should an unqualified method call of this name resolve at all?
pub fn method_resolvable(name: &str) -> bool {
    !METHOD_SKIP.contains(&name) && !METHOD_SKIP_PREFIXES.iter().any(|p| name.starts_with(p))
}

impl<'m> Graph<'m> {
    /// Build the graph. `models` must be sorted by path (the engine
    /// lints files in sorted order, so this holds by construction).
    pub fn build(models: &'m [FileModel]) -> Graph<'m> {
        let mut nodes = Vec::new();
        let mut by_method: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_crate_fn: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut by_type_method: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut crate_dirs = BTreeSet::new();
        for (fi, fm) in models.iter().enumerate() {
            let dir = crate_dir_of(&fm.path).to_string();
            if !dir.is_empty() {
                crate_dirs.insert(dir.clone());
            }
            for (xi, f) in fm.fns.iter().enumerate() {
                let id = nodes.len();
                nodes.push(Node {
                    file: fi,
                    idx: xi,
                    crate_dir: dir.clone(),
                });
                if f.impl_ty.is_some() {
                    if f.takes_self {
                        by_method.entry(f.name.clone()).or_default().push(id);
                    }
                    by_type_method
                        .entry((f.impl_ty.clone().unwrap_or_default(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
                by_crate_fn
                    .entry((dir.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        let mut g = Graph {
            models,
            nodes,
            edges: Vec::new(),
            site_roots: Vec::new(),
            by_method,
            by_crate_fn,
            by_type_method,
            crate_dirs,
        };
        let mut edges = vec![Vec::new(); g.nodes.len()];
        for (id, slot) in edges.iter_mut().enumerate() {
            let node = g.nodes[id].clone();
            let f = g.fn_of(id);
            let mut out = BTreeSet::new();
            for call in &f.calls {
                for t in g.resolve(node.file, &node.crate_dir, call) {
                    if t != id {
                        out.insert(t);
                    }
                }
            }
            *slot = out.into_iter().collect();
        }
        g.edges = edges;
        let mut site_roots = Vec::with_capacity(models.len());
        for (fi, fm) in models.iter().enumerate() {
            let dir = crate_dir_of(&fm.path).to_string();
            let per_site: Vec<Vec<FnId>> = fm
                .pool_sites
                .iter()
                .map(|site| {
                    let mut roots = BTreeSet::new();
                    for call in &site.calls {
                        roots.extend(g.resolve(fi, &dir, call));
                    }
                    roots.into_iter().collect()
                })
                .collect();
            site_roots.push(per_site);
        }
        g.site_roots = site_roots;
        g
    }

    /// The parsed function behind a node.
    pub fn fn_of(&self, id: FnId) -> &'m FnInfo {
        let n = &self.nodes[id];
        &self.models[n.file].fns[n.idx]
    }

    /// The path of the file a node lives in.
    pub fn path_of(&self, id: FnId) -> &'m str {
        &self.models[self.nodes[id].file].path
    }

    /// Human-readable node name: `Type::name` or `crate/name`.
    pub fn display(&self, id: FnId) -> String {
        let f = self.fn_of(id);
        match &f.impl_ty {
            Some(t) => format!("{t}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Resolve one call reference from `file` (in `crate_dir`).
    pub fn resolve(&self, file: usize, crate_dir: &str, call: &CallRef) -> Vec<FnId> {
        if call.method {
            let name = &call.segments[0];
            if !method_resolvable(name) {
                return Vec::new();
            }
            let ids = self.by_method.get(name).cloned().unwrap_or_default();
            // Receiver types are usually local: when the caller's own
            // crate defines the method, resolve to those impls only —
            // `self.stats.record(…)` in hybridmem must not link to
            // every `record` in the workspace.
            let same_crate: Vec<FnId> = ids
                .iter()
                .copied()
                .filter(|&id| self.nodes[id].crate_dir == crate_dir)
                .collect();
            return if same_crate.is_empty() {
                ids
            } else {
                same_crate
            };
        }
        // Expand the leading segment through the file's use map.
        let mut segs: Vec<&str> = call.segments.iter().map(String::as_str).collect();
        let expanded: Vec<String>;
        if let Some(u) = self.models[file]
            .uses
            .iter()
            .find(|u| u.leaf == segs[0] && u.leaf != "*")
        {
            expanded = u
                .segments
                .iter()
                .cloned()
                .chain(call.segments[1..].iter().cloned())
                .collect();
            segs = expanded.iter().map(String::as_str).collect();
        }
        let name = *segs.last().unwrap_or(&"");
        if name.is_empty() {
            return Vec::new();
        }
        if segs.len() == 1 {
            // Bare call: same file first, then same-crate free fns.
            let local: Vec<FnId> = (0..self.nodes.len())
                .filter(|&id| self.nodes[id].file == file && self.fn_of(id).name == name)
                .collect();
            if !local.is_empty() {
                return local;
            }
            return self
                .by_crate_fn
                .get(&(crate_dir.to_string(), name.to_string()))
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| self.fn_of(id).impl_ty.is_none())
                        .collect()
                })
                .unwrap_or_default();
        }
        let head = segs[0];
        // Crate-qualified?
        let target_crate = match head {
            "crate" | "self" | "super" => Some(crate_dir.to_string()),
            _ => self.lib_to_dir(head),
        };
        if let Some(dir) = target_crate {
            let ids = self
                .by_crate_fn
                .get(&(dir, name.to_string()))
                .cloned()
                .unwrap_or_default();
            // `…::Type::method` narrows to that impl; `…::module::fn`
            // keeps every match in the crate.
            let qual = segs[segs.len() - 2];
            if segs.len() >= 3 && starts_upper(qual) {
                return ids
                    .into_iter()
                    .filter(|&id| self.fn_of(id).impl_ty.as_deref() == Some(qual))
                    .collect();
            }
            return ids;
        }
        // `Type::method` with a workspace type: same crate, then global.
        if starts_upper(head) && segs.len() == 2 {
            if let Some(ids) = self
                .by_type_method
                .get(&(head.to_string(), name.to_string()))
            {
                let same_crate: Vec<FnId> = ids
                    .iter()
                    .copied()
                    .filter(|&id| self.nodes[id].crate_dir == crate_dir)
                    .collect();
                return if same_crate.is_empty() {
                    ids.clone()
                } else {
                    same_crate
                };
            }
        }
        // Unknown head (std, vendored externals): no edge.
        Vec::new()
    }

    /// Map a lib name segment (`mnemo_par`, `hybridmem`, `mnemo`) to a
    /// crate directory present in this workspace.
    fn lib_to_dir(&self, seg: &str) -> Option<String> {
        if self.crate_dirs.contains(seg) {
            return Some(seg.to_string());
        }
        if seg == "mnemo" && self.crate_dirs.contains("core") {
            return Some("core".to_string());
        }
        if let Some(rest) = seg.strip_prefix("mnemo_") {
            if self.crate_dirs.contains(rest) {
                return Some(rest.to_string());
            }
        }
        None
    }

    /// Breadth-first reachability from `roots` (depth 0), capped at
    /// `max_depth`. Returns each visited node's depth and BFS parent
    /// (roots have no parent). Deterministic: roots are visited in
    /// order, adjacency lists are sorted.
    pub fn reach(&self, roots: &[FnId], max_depth: u32) -> BTreeMap<FnId, (u32, Option<FnId>)> {
        let mut seen: BTreeMap<FnId, (u32, Option<FnId>)> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(r) {
                e.insert((0, None));
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            let (d, _) = seen[&id];
            if d >= max_depth {
                continue;
            }
            for &t in &self.edges[id] {
                if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(t) {
                    e.insert((d + 1, Some(id)));
                    queue.push_back(t);
                }
            }
        }
        seen
    }

    /// Reconstruct the BFS path root→…→`id` as display names.
    pub fn path_to(&self, seen: &BTreeMap<FnId, (u32, Option<FnId>)>, id: FnId) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(c) = cur {
            chain.push(self.display(c));
            cur = seen.get(&c).and_then(|&(_, p)| p);
            hops += 1;
            if hops > 64 {
                break;
            }
        }
        chain.reverse();
        chain
    }
}

/// The crate directory a repo-relative path belongs to
/// (`crates/serve/src/engine.rs` → `serve`), or `""`.
pub fn crate_dir_of(path: &str) -> &str {
    let mut it = path.split('/');
    if it.next() == Some("crates") {
        it.next().unwrap_or("")
    } else {
        ""
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

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

    fn id_of(g: &Graph, name: &str) -> FnId {
        (0..g.nodes.len())
            .find(|&id| g.fn_of(id).name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    /// Two synthetic crates: `alpha` calls into `beta` by use-path,
    /// crate path, and Type::method.
    fn two_crate_models() -> Vec<FileModel> {
        let alpha = model(
            "crates/alpha/src/lib.rs",
            "use beta::helper;\nuse beta::util::shared as sh;\n\
             fn a1() { helper(); }\n\
             fn a2() { beta::deep(); }\n\
             fn a3() { sh(); }\n\
             fn a4() { beta::Gadget::spin(); }\n\
             fn a5() { local(); }\n\
             fn local() {}\n",
        );
        let beta = model(
            "crates/beta/src/lib.rs",
            "pub fn helper() { deep(); }\n\
             pub fn deep() {}\n\
             mod util { pub fn shared() {} }\n\
             pub struct Gadget;\n\
             impl Gadget { pub fn spin(&self) {} }\n",
        );
        vec![alpha, beta]
    }

    #[test]
    fn use_path_and_crate_path_calls_resolve_across_crates() {
        let models = two_crate_models();
        let g = Graph::build(&models);
        let a1 = id_of(&g, "a1");
        let helper = id_of(&g, "helper");
        let deep = id_of(&g, "deep");
        assert_eq!(g.edges[a1], vec![helper]);
        assert_eq!(g.edges[id_of(&g, "a2")], vec![deep]);
        assert_eq!(g.edges[id_of(&g, "a3")], vec![id_of(&g, "shared")]);
        assert_eq!(g.edges[id_of(&g, "a4")], vec![id_of(&g, "spin")]);
        assert_eq!(g.edges[id_of(&g, "a5")], vec![id_of(&g, "local")]);
        // And helper() → deep() within beta.
        assert_eq!(g.edges[helper], vec![deep]);
    }

    #[test]
    fn bfs_reaches_transitively_with_parents() {
        let models = two_crate_models();
        let g = Graph::build(&models);
        let a1 = id_of(&g, "a1");
        let deep = id_of(&g, "deep");
        let seen = g.reach(&[a1], 16);
        assert_eq!(seen[&deep].0, 2);
        assert_eq!(g.path_to(&seen, deep), vec!["a1", "helper", "deep"]);
    }

    #[test]
    fn depth_cap_bounds_the_walk() {
        let models = two_crate_models();
        let g = Graph::build(&models);
        let a1 = id_of(&g, "a1");
        let seen = g.reach(&[a1], 1);
        assert!(seen.contains_key(&id_of(&g, "helper")));
        assert!(!seen.contains_key(&id_of(&g, "deep")));
    }

    #[test]
    fn prelude_method_names_do_not_resolve_unqualified() {
        let models = vec![model(
            "crates/alpha/src/lib.rs",
            "struct Pool;\nimpl Pool { fn map(&self) {} }\n\
             fn caller(xs: Vec<u32>) { xs.iter().map(f); }\n\
             fn named(x: &X) { x.custom_step(); }\n\
             impl X { fn custom_step(&self) {} }\n",
        )];
        let g = Graph::build(&models);
        let caller = id_of(&g, "caller");
        assert!(g.edges[caller].is_empty(), "{:?}", g.edges[caller]);
        let named = id_of(&g, "named");
        assert_eq!(g.edges[named], vec![id_of(&g, "custom_step")]);
    }

    #[test]
    fn method_calls_link_only_to_fns_with_a_self_receiver() {
        let models = vec![model(
            "crates/alpha/src/lib.rs",
            "struct Session;\n\
             impl Session { fn open(path: &str) -> Session { load(path).unwrap() } }\n\
             struct Segment;\n\
             impl Segment { fn open(&self) {} }\n\
             fn create(opts: &Options) { opts.open(\"seg\"); }\n\
             fn start() { Session::open(\"s\"); }\n",
        )];
        let g = Graph::build(&models);
        let opens: Vec<FnId> = (0..g.nodes.len())
            .filter(|&id| g.fn_of(id).name == "open")
            .collect();
        let (session_open, segment_open) = (opens[0], opens[1]);
        assert_eq!(g.display(session_open), "Session::open");
        assert!(!g.fn_of(session_open).takes_self);
        assert!(g.fn_of(segment_open).takes_self);
        assert_eq!(g.edges[id_of(&g, "create")], vec![segment_open]);
        assert_eq!(g.edges[id_of(&g, "start")], vec![session_open]);
    }

    #[test]
    fn unknown_external_paths_resolve_to_nothing() {
        let models = vec![model(
            "crates/alpha/src/lib.rs",
            "fn f() { std::fs::read(\"x\"); serde::to_writer(w); }\n",
        )];
        let g = Graph::build(&models);
        assert!(g.edges[id_of(&g, "f")].is_empty());
    }

    #[test]
    fn mnemo_lib_names_map_to_crate_dirs() {
        let alpha = model(
            "crates/serve/src/lib.rs",
            "fn f() { mnemo::plan(); mnemo_par::install(); }\n",
        );
        let core = model("crates/core/src/lib.rs", "pub fn plan() {}\n");
        let par = model("crates/par/src/lib.rs", "pub fn install() {}\n");
        let models = vec![alpha, core, par];
        let g = Graph::build(&models);
        let f = id_of(&g, "f");
        assert_eq!(g.edges[f], vec![id_of(&g, "plan"), id_of(&g, "install")]);
    }

    #[test]
    fn pool_site_roots_resolve() {
        let models = vec![model(
            "crates/alpha/src/lib.rs",
            "fn drive(pool: &Pool) { pool.run_jobs(4, |i| work(i)); }\nfn work(_i: usize) {}\n",
        )];
        let g = Graph::build(&models);
        assert_eq!(g.site_roots[0].len(), 1);
        assert_eq!(g.site_roots[0][0], vec![id_of(&g, "work")]);
    }
}
