//! Over-approximate call graph over the workspace symbol table.
//!
//! Edges are name-resolved (see [`crate::symbols`]): a call site
//! `x.foo()` adds an edge to every item named `foo`. `Qual::foo()`
//! narrows to items whose `impl` self type is `Qual` when any exist.
//! Macro invocations `name!(…)` edge to a local `macro_rules! name`
//! definition when one exists, so lock sites inside local macros
//! participate. Calls that resolve to nothing (std, external crates)
//! simply have no edge — analyses treat specific *names* as
//! sources/sinks/sanitizers instead.

use std::collections::{HashMap, HashSet};

use crate::parse::{self, EventKind};
use crate::symbols::{FnId, Workspace};

/// The call graph: per-item resolved callees, in call-site order.
pub struct CallGraph {
    /// id → resolved callee ids (deduplicated, order preserved).
    pub callees: HashMap<FnId, Vec<FnId>>,
    /// id → callers (reverse edges).
    pub callers: HashMap<FnId, Vec<FnId>>,
}

impl CallGraph {
    /// Builds the graph for a workspace.
    pub fn build(ws: &Workspace<'_>) -> Self {
        let mut callees: HashMap<FnId, Vec<FnId>> = HashMap::new();
        let mut callers: HashMap<FnId, Vec<FnId>> = HashMap::new();
        for id in ws.all_ids() {
            let item = ws.item(id);
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for ev in parse::body_events(ws.file(id), item) {
                let EventKind::Call(call) = ev.kind else {
                    continue;
                };
                for target in resolve(ws, &call) {
                    if target != id && seen.insert(target) {
                        out.push(target);
                        callers.entry(target).or_default().push(id);
                    }
                }
            }
            callees.insert(id, out);
        }
        CallGraph { callees, callers }
    }

    /// The resolved callees of `id`.
    pub fn callees_of(&self, id: FnId) -> &[FnId] {
        self.callees.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Fixpoint reachability: the set of items from which some item
    /// satisfying `hit` is reachable through the call graph (including
    /// the hit items themselves). Used by the taint analysis to answer
    /// "can f reach a sink?" for every f at once.
    pub fn reaches(&self, ws: &Workspace<'_>, hit: impl Fn(FnId) -> bool) -> HashSet<FnId> {
        let mut set: HashSet<FnId> = ws.all_ids().filter(|&id| hit(id)).collect();
        let mut work: Vec<FnId> = set.iter().copied().collect();
        while let Some(id) = work.pop() {
            if let Some(callers) = self.callers.get(&id) {
                for &c in callers {
                    if set.insert(c) {
                        work.push(c);
                    }
                }
            }
        }
        set
    }
}

/// Resolves one call site to candidate items.
fn resolve(ws: &Workspace<'_>, call: &parse::CallSite<'_>) -> Vec<FnId> {
    let candidates = ws.lookup(call.name);
    if call.is_macro {
        // Only edge to macro_rules definitions for `name!` calls.
        return if candidates.iter().any(|&id| ws.item(id).is_macro) {
            candidates.to_vec()
        } else {
            Vec::new()
        };
    }
    narrow_by_qualifier(ws, candidates, call.qualifier)
}

/// For `Qual::name(…)` calls, narrows `candidates` to items whose impl
/// self type matches the qualifier — but only when at least one does
/// (otherwise the qualifier is a module path and all candidates stay).
pub fn narrow_by_qualifier(
    ws: &Workspace<'_>,
    candidates: &[FnId],
    qualifier: Option<&str>,
) -> Vec<FnId> {
    if let Some(q) = qualifier {
        let narrowed: Vec<FnId> = candidates
            .iter()
            .copied()
            .filter(|&id| ws.item(id).self_ty.as_deref() == Some(q))
            .collect();
        if !narrowed.is_empty() {
            return narrowed;
        }
    }
    candidates.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::symbols::Workspace;

    fn ws(srcs: &[(&str, &'static str)]) -> Workspace<'static> {
        Workspace::new(
            srcs.iter()
                .map(|(path, src)| parse::parse(path, src))
                .collect(),
        )
    }

    fn id_of(ws: &Workspace<'_>, name: &str) -> FnId {
        ws.lookup(name)[0]
    }

    #[test]
    fn edges_cross_files_by_name() {
        let ws = ws(&[
            ("crates/a/src/lib.rs", "fn caller() { helper(); }"),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        let g = CallGraph::build(&ws);
        assert_eq!(g.callees_of(id_of(&ws, "caller")), &[id_of(&ws, "helper")]);
    }

    #[test]
    fn method_calls_edge_to_every_impl() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "impl X { fn feed(&self) {} } impl Y { fn feed(&self) {} } fn f(v: &V) { v.feed(); }",
        )]);
        let g = CallGraph::build(&ws);
        assert_eq!(g.callees_of(id_of(&ws, "f")).len(), 2);
    }

    #[test]
    fn qualified_calls_narrow_to_the_qualifier_impl() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "impl X { fn make() {} } impl Y { fn make() {} } \
             fn f() { X::make(); } fn g() { m::make(); }",
        )]);
        let g = CallGraph::build(&ws);
        let x_make = ws.lookup("make")[0];
        assert_eq!(ws.item(x_make).self_ty.as_deref(), Some("X"));
        assert_eq!(g.callees_of(id_of(&ws, "f")), &[x_make]);
        // A qualifier no impl matches is a module path: every
        // same-named item stays a candidate.
        assert_eq!(g.callees_of(id_of(&ws, "g")).len(), 2);
    }

    #[test]
    fn macro_invocations_edge_to_local_macro_rules() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "macro_rules! grab { () => { s.lock() }; } fn f() { let g = grab!(); }",
        )]);
        let g = CallGraph::build(&ws);
        assert_eq!(g.callees_of(id_of(&ws, "f")), &[id_of(&ws, "grab")]);
    }

    #[test]
    fn unknown_macros_have_no_edges() {
        let ws = ws(&[("crates/a/src/lib.rs", "fn f() { vec![1, 2]; }")]);
        let g = CallGraph::build(&ws);
        assert!(g.callees_of(id_of(&ws, "f")).is_empty());
    }

    #[test]
    fn reachability_is_transitive_through_callers() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "fn top() { mid(); } fn mid() { sink(); } fn sink() {} fn other() {}",
        )]);
        let g = CallGraph::build(&ws);
        let sink = id_of(&ws, "sink");
        let reach = g.reaches(&ws, |id| id == sink);
        assert!(reach.contains(&id_of(&ws, "top")));
        assert!(reach.contains(&id_of(&ws, "mid")));
        assert!(!reach.contains(&id_of(&ws, "other")));
    }
}
