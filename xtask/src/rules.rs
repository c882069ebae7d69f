//! The domain lint rules.
//!
//! Each rule walks the token stream of one file (test-masked tokens
//! removed from consideration) and emits [`Diagnostic`]s. Rules are
//! token-level by design: they cannot be fooled by formatting, strings,
//! or comments, and they run over the whole workspace in milliseconds
//! without a compiler in the loop.

use crate::lexer::Token;
use crate::policy::Policy;

/// The token-level rules `cargo xtask lint` runs, with their waiver
/// keys.
pub const LINT_RULE_NAMES: &[&str] = &[
    "no-panic",
    "raw-atomics",
    "timing-writes",
    "instant-hot-path",
];

/// The semantic rules `cargo xtask analyze` runs (see
/// [`crate::analyses`]), with their waiver keys.
pub const ANALYZE_RULE_NAMES: &[&str] = &["lock-order", "condvar-loop", "atomics-policy"];

/// Every waivable rule either pass knows. Keep this the concatenation
/// of [`LINT_RULE_NAMES`] and [`ANALYZE_RULE_NAMES`] (asserted by a
/// unit test): waiver validation accepts any of them, while each pass
/// only *applies* waivers for its own rules.
pub const RULE_NAMES: &[&str] = &[
    "no-panic",
    "raw-atomics",
    "timing-writes",
    "instant-hot-path",
    "lock-order",
    "condvar-loop",
    "atomics-policy",
];

/// One finding: where, which rule, and what to do about it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule key (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-oriented description with the remedy.
    pub message: String,
}

/// Runs every rule over one file's unmasked tokens.
pub fn check_file(
    relpath: &str,
    toks: &[Token<'_>],
    mask: &[bool],
    policy: &Policy,
    out: &mut Vec<Diagnostic>,
) {
    // Collapse the test-masked tokens away so rules see only library
    // code; adjacency for sequences like `.` `unwrap` `(` is preserved
    // because masking always removes whole items, never slices.
    let live: Vec<Token<'_>> = toks
        .iter()
        .zip(mask)
        .filter(|(_, &m)| !m)
        .map(|(t, _)| *t)
        .collect();

    no_panic(relpath, &live, policy, out);
    raw_atomics(relpath, &live, policy, out);
    timing_writes(relpath, &live, policy, out);
    instant_hot_path(relpath, &live, policy, out);
}

fn diag(out: &mut Vec<Diagnostic>, relpath: &str, line: u32, rule: &'static str, message: String) {
    out.push(Diagnostic {
        file: relpath.to_string(),
        line,
        rule,
        message,
    });
}

/// Library code must propagate errors, not abort: no `.unwrap()` /
/// `.expect(...)` (or their `_err` duals) and no `panic!` family
/// macros. `assert!`-family macros stay legal — invariant checks are
/// not error handling.
fn no_panic(relpath: &str, toks: &[Token<'_>], policy: &Policy, out: &mut Vec<Diagnostic>) {
    if policy.matches("no-panic", "allow", relpath) {
        return;
    }
    const METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for (i, t) in toks.iter().enumerate() {
        let followed_by_bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let method_call =
            i > 0 && toks[i - 1].is_punct('.') && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if method_call && METHODS.contains(&t.text) {
            diag(
                out,
                relpath,
                t.line,
                "no-panic",
                format!(
                    ".{}() aborts on the error path; return a `Result` (or \
                     waive with `// xtask:allow(no-panic) -- reason`)",
                    t.text
                ),
            );
        } else if followed_by_bang && MACROS.contains(&t.text) {
            // `macro_rules! panic` or a `!=` comparison never match
            // here: the name must be directly followed by `!` and then
            // a delimiter.
            let delim = toks
                .get(i + 2)
                .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'));
            if delim {
                diag(
                    out,
                    relpath,
                    t.line,
                    "no-panic",
                    format!(
                        "{}! aborts the process; return a typed error instead",
                        t.text
                    ),
                );
            }
        }
    }
}

/// Raw atomics belong to `drange-telemetry` and the audited protocol
/// modules only — everywhere else they are a review hazard (orderings
/// are easy to get wrong and impossible to test deterministically).
/// Flags `std::sync::atomic` paths/imports and bare `Atomic*` type
/// names outside the policy allowlist.
fn raw_atomics(relpath: &str, toks: &[Token<'_>], policy: &Policy, out: &mut Vec<Diagnostic>) {
    if policy.matches("raw-atomics", "allow", relpath) {
        return;
    }
    const ATOMIC_TYPES: &[&str] = &[
        "AtomicBool",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
        "AtomicIsize",
        "AtomicPtr",
    ];
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("atomic")
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("sync")
        {
            diag(
                out,
                relpath,
                t.line,
                "raw-atomics",
                "raw `sync::atomic` use outside the audited modules; go through \
                 `drange_core::sync` or `drange-telemetry`, or add the file to \
                 `xtask/lint_policy.toml` [raw-atomics] with a review"
                    .to_string(),
            );
        } else if t.kind == crate::lexer::TokKind::Ident && ATOMIC_TYPES.contains(&t.text) {
            diag(
                out,
                relpath,
                t.line,
                "raw-atomics",
                format!(
                    "`{}` outside the audited modules; wrap the protocol in \
                     `drange_core::sync` (loom-checkable) instead",
                    t.text
                ),
            );
        }
    }
}

/// DRAM timing parameters must flow through `TimingRegisters`' checked
/// setters (`set_trcd_ns` / `set_trcd_ps`), which validate the value
/// and keep `trcd_violates_spec()` truthful. Building `TimingParams`
/// with an ad-hoc `trcd_ps:` override or calling a scheduler's
/// `.set_timing(...)` directly bypasses that gate.
fn timing_writes(relpath: &str, toks: &[Token<'_>], policy: &Policy, out: &mut Vec<Diagnostic>) {
    if policy.matches("timing-writes", "allow", relpath) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("set_timing")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            diag(
                out,
                relpath,
                t.line,
                "timing-writes",
                ".set_timing(...) bypasses the register file's legality checks; \
                 derive the parameters from `TimingRegisters::effective()` and \
                 waive the call site, or route through `MemoryController`"
                    .to_string(),
            );
        } else if t.is_ident("trcd_ps")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            // `trcd_ps::` is a path, not a field init.
            && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
        // In a field *declaration* the init form is preceded by
        // `pub` or a brace/comma too, so only flag when the next
        // token after `:` is a value, not a bare type keyword —
        // token-level we cannot tell; rely on the allowlist for the
        // two definition sites and flag everything else.
        {
            diag(
                out,
                relpath,
                t.line,
                "timing-writes",
                "`trcd_ps:` written directly; program tRCD through \
                 `TimingRegisters::set_trcd_ps`/`set_trcd_ns` so the violation \
                 window stays auditable"
                    .to_string(),
            );
        }
    }
}

/// Hot-path modules must take time through their telemetry handles
/// (`StageTimer` etc.), not ad-hoc `Instant::now()` pairs: ad-hoc
/// timing skews the stage histograms the throughput claims rest on.
/// Applies only to files listed under `[instant-hot-path] hot`.
fn instant_hot_path(relpath: &str, toks: &[Token<'_>], policy: &Policy, out: &mut Vec<Diagnostic>) {
    if !policy.matches("instant-hot-path", "hot", relpath)
        || policy.matches("instant-hot-path", "allow", relpath)
    {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("now")
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("Instant")
        {
            diag(
                out,
                relpath,
                t.line,
                "instant-hot-path",
                "`Instant::now()` in a hot-path module; use the telemetry stage \
                 timers so the overhead is measured, not smeared"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod rule_name_tests {
    use super::*;

    #[test]
    fn rule_names_is_the_union_of_both_passes() {
        let union: Vec<&str> = LINT_RULE_NAMES
            .iter()
            .chain(ANALYZE_RULE_NAMES)
            .copied()
            .collect();
        assert_eq!(RULE_NAMES, union.as_slice());
    }
}
