//! The `cargo xtask analyze` semantic passes.
//!
//! Two whole-workspace analyses over the item-level front-end
//! ([`crate::parse`], [`crate::symbols`]):
//!
//! - [`lockorder`] — lock-acquisition ordering: potential-deadlock
//!   cycles, re-acquisition of a held lock, and condvar waits that are
//!   not re-checked in a loop.
//! - [`atomics`] — every `Ordering::*` use must match the per-file
//!   allow-table in `lint_policy.toml` `[atomics-policy]`; `SeqCst`
//!   always requires a per-site waiver with a rationale.
//!
//! Files matching `[analyze] exclude` in the policy are not parsed at
//! all (loomlite deliberately shadows `std::sync` names and would
//! poison name-based resolution).

pub mod atomics;
pub mod lockorder;

use crate::parse;
use crate::policy::Policy;
use crate::rules::Diagnostic;
use crate::symbols::Workspace;

/// Runs both analyses over `(relpath, source)` pairs, returning
/// raw findings (waivers not yet applied), sorted by file then line.
pub fn analyze_sources(sources: &[(String, String)], policy: &Policy) -> Vec<Diagnostic> {
    let files: Vec<parse::ParsedFile<'_>> = sources
        .iter()
        .filter(|(relpath, _)| !policy.matches("analyze", "exclude", relpath))
        .map(|(relpath, source)| parse::parse(relpath, source))
        .collect();
    let ws = Workspace::new(files);

    let mut out = Vec::new();
    lockorder::check(&ws, &mut out);
    atomics::check(&ws, policy, &mut out);
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    out.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    out
}
