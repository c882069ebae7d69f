//! Lock-order analysis: potential-deadlock cycles, re-acquisition of a
//! held lock, and condvar waits outside a re-check loop.
//!
//! **Lock identity.** An acquisition is a zero-argument `.lock()` /
//! `.read()` / `.write()` method call; the lock is named by the
//! identifier directly left of the method (`shared.pool.lock()` →
//! `pool`), qualified by the acquiring file's crate (`core:pool`) so
//! same-named fields in different crates do not alias. Acquisitions
//! whose receiver is a non-trivial expression are invisible — name
//! your mutex fields.
//!
//! **Guard lifetime** is tracked linearly through each body: a
//! let-bound guard lives to the end of its enclosing block (or an
//! explicit `drop(name)`); a temporary lives to the end of its
//! statement. Branches are walked in source order as if all executed,
//! which over-approximates (an early `return` inside a branch does not
//! release earlier guards for the remainder of the walk).
//!
//! **Edges.** Acquiring `B` while holding `A` records `A → B`; calling
//! a workspace function `g` while holding `A` records `A → L` for
//! every lock `L` in `g`'s transitive acquisition summary. A cycle in
//! the resulting graph is a potential deadlock. A local `macro_rules!`
//! whose summary is a single lock (the telemetry recorder's
//! `lock_state!`) is treated as acquiring that lock directly, so its
//! let-bound guards participate.
//!
//! **Call resolution** is deliberately narrow: a method call resolves
//! only through `self` (to the caller's own impl type), a qualified
//! call (`Type::f(..)`) only to an impl of that type, and a bare call
//! only to free functions. Everything else — `Vec::new()`, a closure
//! parameter invoked by name, `other.helper()` — is treated as
//! external. Lock summaries flow along these edges; inventing an edge
//! through a ubiquitous name like `new` would union unrelated
//! summaries into every constructor and drown the report in false
//! cycles, so the analysis prefers a missed edge to a fabricated one.
//!
//! **Condvar discipline.** `.wait(..)` / `.wait_timeout(..)` /
//! `.wait_until(..)` / `.wait_for(..)` must appear inside a
//! `loop`/`while`/`for` so the predicate is re-checked after a wakeup;
//! `wait_while`-style calls carry their own loop and are exempt.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::parse::{self, CallSite, EventKind};
use crate::rules::Diagnostic;
use crate::symbols::{FnId, Workspace};

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_until", "wait_for"];

/// One edge site: where the second lock of the pair was taken.
type EdgeSite = (String, u32);

/// Runs the lock-order analysis over the workspace.
pub fn check(ws: &Workspace<'_>, out: &mut Vec<Diagnostic>) {
    // Direct acquisition sets and conservative callee lists per item.
    let mut direct: HashMap<FnId, BTreeSet<String>> = HashMap::new();
    let mut callees: HashMap<FnId, Vec<FnId>> = HashMap::new();
    for id in ws.all_ids() {
        let mut set = BTreeSet::new();
        let mut outs: Vec<FnId> = Vec::new();
        for ev in parse::body_events(ws.file(id), ws.item(id)) {
            if let EventKind::Call(c) = ev.kind {
                if let Some(lock) = acquisition(ws, id, &c) {
                    set.insert(lock);
                } else {
                    outs.extend(lock_callees(ws, id, &c));
                }
            }
        }
        outs.sort_unstable();
        outs.dedup();
        direct.insert(id, set);
        callees.insert(id, outs);
    }

    // Transitive summaries: locks an item may acquire, via any callee.
    let mut summary = direct;
    loop {
        let mut changed = false;
        for id in ws.all_ids() {
            let mut add: Vec<String> = Vec::new();
            for callee in &callees[&id] {
                if let Some(s) = summary.get(callee) {
                    add.extend(s.iter().filter(|l| !summary[&id].contains(*l)).cloned());
                }
            }
            if !add.is_empty() {
                changed = true;
                if let Some(s) = summary.get_mut(&id) {
                    s.extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Held-lock simulation per item: edges + per-site findings.
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
    for id in ws.all_ids() {
        if ws.item(id).test {
            continue;
        }
        simulate(ws, &summary, id, &mut edges, out);
    }

    report_cycles(&edges, out);
}

/// The lock id acquired by a call site, if it is an acquisition.
fn acquisition(ws: &Workspace<'_>, id: FnId, c: &CallSite<'_>) -> Option<String> {
    if c.is_method && c.zero_args && ACQUIRE_METHODS.contains(&c.name) {
        return c.recv.map(|r| format!("{}:{}", ws.crate_of(id), r));
    }
    None
}

/// A guard currently held during the linear walk of one body.
struct Guard<'a> {
    lock: String,
    binding: Option<&'a str>,
    depth: u32,
}

fn simulate(
    ws: &Workspace<'_>,
    summary: &HashMap<FnId, BTreeSet<String>>,
    id: FnId,
    edges: &mut BTreeMap<(String, String), EdgeSite>,
    out: &mut Vec<Diagnostic>,
) {
    let item = ws.item(id);
    let file = ws.path(id).to_string();
    let events = parse::body_events(ws.file(id), item);
    let mut held: Vec<Guard<'_>> = Vec::new();
    let mut pending_let: Option<&str> = None;
    // One re-acquire-via-call finding per (line, lock), however many
    // same-named targets the call resolves to.
    let mut reported: BTreeSet<(u32, String)> = BTreeSet::new();

    for ev in &events {
        match ev.kind {
            EventKind::Let(name) => pending_let = Some(name),
            EventKind::Open => pending_let = None,
            EventKind::Close => {
                held.retain(|g| g.depth <= ev.depth);
                pending_let = None;
            }
            EventKind::Semi => {
                held.retain(|g| g.binding.is_some() || g.depth < ev.depth);
                pending_let = None;
            }
            EventKind::Drop(name) => {
                if let Some(pos) = held.iter().rposition(|g| g.binding == Some(name)) {
                    held.remove(pos);
                }
            }
            EventKind::Call(c) => {
                if c.is_method && WAIT_METHODS.contains(&c.name) && ev.loop_depth == 0 {
                    out.push(Diagnostic {
                        file: file.clone(),
                        line: ev.line,
                        rule: "condvar-loop",
                        message: format!(
                            ".{}() outside a loop: condvar wakeups are spurious-prone, \
                             re-check the predicate in a `while`/`loop` (or use a \
                             `wait_while` form)",
                            c.name
                        ),
                    });
                }
                if let Some(lock) = direct_or_macro_acquisition(ws, summary, id, &c) {
                    if let Some(prior) = held.iter().find(|g| g.lock == lock) {
                        out.push(Diagnostic {
                            file: file.clone(),
                            line: ev.line,
                            rule: "lock-order",
                            message: format!(
                                "re-acquires `{lock}` while already held (guard{}); \
                                 self-deadlock with a non-reentrant lock",
                                prior.binding.map(|b| format!(" `{b}`")).unwrap_or_default()
                            ),
                        });
                    } else {
                        for g in &held {
                            edges
                                .entry((g.lock.clone(), lock.clone()))
                                .or_insert_with(|| (file.clone(), ev.line));
                        }
                        held.push(Guard {
                            lock,
                            binding: pending_let.take(),
                            depth: ev.depth,
                        });
                    }
                } else if !held.is_empty() {
                    // Interprocedural: a held lock vs. everything the
                    // callee may acquire, along the conservative edges
                    // only (see module docs — a `Vec::new()` must not
                    // inherit some constructor's lock summary).
                    for target in lock_callees(ws, id, &c) {
                        for l in summary.get(&target).into_iter().flatten() {
                            if held.iter().any(|g| g.lock == *l) {
                                if reported.insert((ev.line, l.clone())) {
                                    out.push(Diagnostic {
                                        file: file.clone(),
                                        line: ev.line,
                                        rule: "lock-order",
                                        message: format!(
                                            "calls `{}` which may re-acquire held `{l}`; \
                                             self-deadlock with a non-reentrant lock",
                                            c.name
                                        ),
                                    });
                                }
                            } else {
                                for g in &held {
                                    edges
                                        .entry((g.lock.clone(), l.clone()))
                                        .or_insert_with(|| (file.clone(), ev.line));
                                }
                            }
                        }
                    }
                }
            }
            EventKind::Ordering(_) => {}
        }
    }
}

/// Direct acquisition, or a local single-lock macro (`lock_state!`).
fn direct_or_macro_acquisition(
    ws: &Workspace<'_>,
    summary: &HashMap<FnId, BTreeSet<String>>,
    id: FnId,
    c: &CallSite<'_>,
) -> Option<String> {
    if let Some(lock) = acquisition(ws, id, c) {
        return Some(lock);
    }
    if c.is_macro {
        let targets: Vec<FnId> = ws
            .lookup(c.name)
            .iter()
            .copied()
            .filter(|&t| ws.item(t).is_macro)
            .collect();
        if let [target] = targets.as_slice() {
            let locks = summary.get(target)?;
            if locks.len() == 1 {
                return locks.iter().next().cloned();
            }
        }
    }
    None
}

/// Workspace items a call may land in, by the narrow rules the
/// module docs describe. `Self::f(..)` counts as qualified by the
/// caller's own impl type.
fn lock_callees(ws: &Workspace<'_>, id: FnId, c: &CallSite<'_>) -> Vec<FnId> {
    let candidates = ws.lookup(c.name);
    let caller_ty = ws.item(id).self_ty.as_deref();
    if c.is_macro {
        return candidates
            .iter()
            .copied()
            .filter(|&t| ws.item(t).is_macro)
            .collect();
    }
    let wanted_ty: Option<&str> = if c.is_method {
        if c.recv != Some("self") {
            return Vec::new();
        }
        match caller_ty {
            Some(ty) => Some(ty),
            None => return Vec::new(),
        }
    } else {
        match c.qualifier {
            Some("Self") => match caller_ty {
                Some(ty) => Some(ty),
                None => return Vec::new(),
            },
            other => other,
        }
    };
    candidates
        .iter()
        .copied()
        .filter(|&t| !ws.item(t).is_macro && ws.item(t).self_ty.as_deref() == wanted_ty)
        .collect()
}

/// DFS cycle detection over the acquisition-order graph; each distinct
/// cycle is reported once, at the recorded site of its closing edge.
fn report_cycles(edges: &BTreeMap<(String, String), EdgeSite>, out: &mut Vec<Diagnostic>) {
    let mut adjacency: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adjacency.entry(a.as_str()).or_default().push(b.as_str());
        adjacency.entry(b.as_str()).or_default();
    }
    let mut state: HashMap<&str, u8> = HashMap::new(); // 1 = on stack, 2 = done
    let mut stack: Vec<&str> = Vec::new();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();

    fn dfs<'g>(
        node: &'g str,
        adjacency: &BTreeMap<&'g str, Vec<&'g str>>,
        state: &mut HashMap<&'g str, u8>,
        stack: &mut Vec<&'g str>,
        edges: &BTreeMap<(String, String), EdgeSite>,
        seen_cycles: &mut BTreeSet<Vec<String>>,
        out: &mut Vec<Diagnostic>,
    ) {
        state.insert(node, 1);
        stack.push(node);
        for &next in adjacency.get(node).into_iter().flatten() {
            match state.get(next) {
                Some(1) => {
                    let from = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[from..].iter().map(|s| (*s).to_string()).collect();
                    // Normalize rotation so each cycle reports once.
                    let min_idx = cycle
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.cmp(b.1))
                        .map_or(0, |(i, _)| i);
                    cycle.rotate_left(min_idx);
                    if seen_cycles.insert(cycle.clone()) {
                        let site = edges
                            .get(&(node.to_string(), next.to_string()))
                            .cloned()
                            .unwrap_or_else(|| ("<unknown>".to_string(), 0));
                        let mut path = cycle.join(" -> ");
                        path.push_str(" -> ");
                        path.push_str(&cycle[0]);
                        out.push(Diagnostic {
                            file: site.0,
                            line: site.1,
                            rule: "lock-order",
                            message: format!(
                                "lock-order cycle {path}: two threads taking these \
                                 locks in opposite orders can deadlock; pick one \
                                 global order"
                            ),
                        });
                    }
                }
                Some(2) => {}
                _ => dfs(next, adjacency, state, stack, edges, seen_cycles, out),
            }
        }
        stack.pop();
        state.insert(node, 2);
    }

    let nodes: Vec<&str> = adjacency.keys().copied().collect();
    for node in nodes {
        if !state.contains_key(node) {
            dfs(
                node,
                &adjacency,
                &mut state,
                &mut stack,
                edges,
                &mut seen_cycles,
                out,
            );
        }
    }
}
