//! Cross-file symbol table and call graph.
//!
//! The W and J families reason about the workspace as a whole: "does
//! this public mutator reach simulation state?", "does some path bump a
//! write generation?". Those questions need a call graph. Because vlint
//! has no type information, the graph is *name-based*: a call site
//! `foo(...)` is an edge to every workspace function named `foo`. That
//! over-approximates reachability (two unrelated `reset` functions are
//! conflated), which is the safe direction for J001 — a conflation can
//! only add a path, never hide one — and the rare false positive is
//! absorbed by a reasoned `// vlint: allow(...)`.
//!
//! Test-region functions are excluded from the graph: a test helper that
//! happens to share a production function's name must not launder (or
//! fabricate) reachability.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Kind, Token};
use crate::FileCtx;

/// Names so ubiquitous that a call site almost always means std or a
/// container, not the workspace function that happens to share the name
/// (`Cell::get` vs `FrameInfo::get`, `Vec::insert` vs a tree's
/// `insert`). The closure does not expand through them and J001 never
/// treats them as sinks: without this, one `v.get(...)` anywhere
/// conflates into the whole graph and reachability floods — drowning
/// true positives in coverage and true negatives in noise. J001's
/// vocabulary (`record`, domain verbs like `alloc`) is deliberately
/// specific, so treating these as opaque costs almost no real paths.
const OPAQUE_NAMES: &[&str] = &[
    "as_mut",
    "as_ref",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "default",
    "end",
    "entry",
    "eq",
    "expect",
    "extend",
    "filter",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "len",
    "map",
    "max",
    "min",
    "new",
    "next",
    "or_default",
    "or_insert",
    "pop",
    "push",
    "remove",
    "replace",
    "run",
    "set",
    "start",
    "take",
    "to_string",
    "unwrap",
];

/// Whether the call-graph treats `name` as an opaque std-ish call.
pub(crate) fn is_opaque(name: &str) -> bool {
    OPAQUE_NAMES.binary_search(&name).is_ok()
}

/// The identifiers invoked as calls (`name(`) within a token slice.
/// Macro invocations (`name!(...)`) never match: the `!` sits between
/// the identifier and the parenthesis.
pub(crate) fn call_names(ts: &[Token]) -> BTreeSet<String> {
    ts.windows(2)
        .filter(|w| w[0].kind == Kind::Ident && w[1].is_punct('('))
        .map(|w| w[0].text.clone())
        .collect()
}

/// Whether the slice assigns to a `write_gen` field (`.write_gen = ...`).
pub(crate) fn writes_gen(ts: &[Token]) -> bool {
    ts.windows(3)
        .any(|w| w[0].is_punct('.') && w[1].is_ident("write_gen") && w[2].is_punct('='))
}

/// Whether the slice mentions the frame-content store (`self.data`).
pub(crate) fn touches_self_data(ts: &[Token]) -> bool {
    ts.windows(3)
        .any(|w| w[0].is_ident("self") && w[1].is_punct('.') && w[2].is_ident("data"))
}

/// One function in the workspace call graph.
pub(crate) struct FnNode {
    /// Index into the workspace's file list.
    pub file: usize,
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    pub takes_mut_self: bool,
    /// Names this function's body invokes as calls.
    pub calls: BTreeSet<String>,
    /// Whether the body assigns `.write_gen = ...`.
    pub writes_gen: bool,
    /// Whether the body mentions `self.data`.
    pub touches_data: bool,
    /// Whether the `fn` item sits in a test region.
    pub in_test: bool,
}

/// The workspace-wide view the cross-file rules run against.
pub(crate) struct WorkspaceCtx<'w, 'a> {
    pub files: &'w [FileCtx<'a>],
    pub nodes: Vec<FnNode>,
    /// Function name -> indices into `nodes`.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl<'w, 'a> WorkspaceCtx<'w, 'a> {
    pub fn build(files: &'w [FileCtx<'a>]) -> Self {
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for fun in &f.fns {
                let body = &f.tokens[fun.body.0..fun.body.1];
                nodes.push(FnNode {
                    file: fi,
                    name: fun.name.clone(),
                    line: fun.line,
                    takes_mut_self: fun.takes_mut_self,
                    calls: call_names(body),
                    writes_gen: writes_gen(body),
                    touches_data: touches_self_data(body),
                    in_test: f.in_test_code(fun.line),
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(n.name.clone()).or_default().push(i);
        }
        Self {
            files,
            nodes,
            by_name,
        }
    }

    /// Name-reachability closure: starting from the call names in
    /// `seeds`, repeatedly expand through the body of every non-test
    /// function bearing a reached name. Returns the reached set plus a
    /// predecessor map for reconstructing one call chain per name.
    pub fn closure(
        &self,
        seeds: &BTreeSet<String>,
    ) -> (BTreeSet<String>, BTreeMap<String, String>) {
        let mut reached = seeds.clone();
        let mut parent: BTreeMap<String, String> = BTreeMap::new();
        // Deterministic BFS: pop in sorted order.
        let mut frontier: Vec<String> = seeds.iter().rev().cloned().collect();
        while let Some(name) = frontier.pop() {
            if is_opaque(&name) {
                continue;
            }
            let Some(ids) = self.by_name.get(&name) else {
                continue;
            };
            let mut fresh: BTreeSet<String> = BTreeSet::new();
            for &id in ids {
                let n = &self.nodes[id];
                if n.in_test {
                    continue;
                }
                for callee in &n.calls {
                    if !reached.contains(callee) {
                        fresh.insert(callee.clone());
                    }
                }
            }
            for callee in fresh.into_iter().rev() {
                reached.insert(callee.clone());
                parent.insert(callee.clone(), name.clone());
                frontier.push(callee);
            }
        }
        (reached, parent)
    }

    /// Renders the call chain that reached `name` as `a -> b -> name`.
    pub fn chain(&self, parent: &BTreeMap<String, String>, name: &str) -> String {
        let mut links = vec![name.to_string()];
        let mut cur = name;
        while let Some(p) = parent.get(cur) {
            links.push(p.clone());
            cur = p;
            if links.len() > 16 {
                break; // defensive: parent maps are acyclic by construction
            }
        }
        links.reverse();
        links.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn opaque_names_are_sorted_for_binary_search() {
        let mut sorted = OPAQUE_NAMES.to_vec();
        sorted.sort_unstable();
        assert_eq!(OPAQUE_NAMES, &sorted[..]);
        assert!(is_opaque("get") && !is_opaque("record") && !is_opaque("next_u64"));
    }

    #[test]
    fn closure_does_not_expand_through_opaque_names() {
        let sources = [(
            "crates/mem/src/a.rs".to_string(),
            "fn get() { forbidden(); }\nfn top(&self) { v.get(); }\n".to_string(),
            crate::Families::ALL,
        )];
        let files = crate::build_file_ctxs(&sources);
        let ws = WorkspaceCtx::build(&files);
        let seeds: BTreeSet<String> = ["top".to_string()].into_iter().collect();
        let (reached, _) = ws.closure(&seeds);
        assert!(reached.contains("get"));
        assert!(!reached.contains("forbidden"));
    }

    #[test]
    fn call_names_skip_macros() {
        let toks = lex("fn f() { go(1); assert_eq!(a, b); self.rng.next_u64() }");
        let calls = call_names(&toks);
        assert!(calls.contains("go"));
        assert!(calls.contains("next_u64"));
        assert!(!calls.contains("assert_eq"));
    }

    #[test]
    fn closure_expands_transitively_and_skips_test_fns() {
        let sources = [
            (
                "crates/mem/src/a.rs".to_string(),
                "fn top(&self) { mid(); }\nfn mid() { bottom(); }\nfn bottom() {}\n".to_string(),
                crate::Families::ALL,
            ),
            (
                "crates/mem/src/b.rs".to_string(),
                "#[cfg(test)]\nmod tests {\n  fn mid() { forbidden(); }\n}\n".to_string(),
                crate::Families::ALL,
            ),
        ];
        let files = crate::build_file_ctxs(&sources);
        let ws = WorkspaceCtx::build(&files);
        let seeds: BTreeSet<String> = ["top".to_string()].into_iter().collect();
        let (reached, parent) = ws.closure(&seeds);
        assert!(reached.contains("mid") && reached.contains("bottom"));
        // The test-region `mid` must not contribute its `forbidden` edge.
        assert!(!reached.contains("forbidden"));
        assert_eq!(ws.chain(&parent, "bottom"), "top -> mid -> bottom");
    }
}
