//! Workspace automation: `cargo xtask lint`, `cargo xtask analyze`,
//! `cargo xtask check-trace`, and `cargo xtask bench-gate`.
//!
//! `bench-gate` guards the recorded harvest-throughput baseline: CI's
//! bench-smoke job snapshots the committed `BENCH_harvest.json`, runs
//! the quick-scale fig8 bench, and fails the job when the fast-path
//! per-READ cost implies a throughput regression beyond the bound
//! (see [`benchgate`]).
//!
//! `check-trace` validates Chrome trace-event JSON captured from the
//! server's `GET /debug/trace` endpoint (see [`tracecheck`]); CI's
//! server-smoke job pipes a live capture through it.
//!
//! Both commands read their input through [`json`], the workspace's one
//! JSON reader; `drange-bench` depends on this crate to read its
//! `BENCH_harvest.json` reports with it too.
//!
//! `lint` is a dependency-free, token-level pass enforcing the domain
//! rules the compiler cannot see (see [`rules`] for the rule set and
//! `xtask/lint_policy.toml` for the allowlists). `analyze` builds an
//! item-level front-end over the same lexer ([`parse`], [`symbols`])
//! and runs whole-workspace semantic checks: lock ordering and the
//! atomics-ordering policy (see [`analyses`]). Scope for both: library code under `crates/*/src/`,
//! excluding binaries (`src/bin/`, `src/main.rs`) and anything behind
//! `#[cfg(test)]` / `#[test]`.
//!
//! Individual findings can be waived at the call site with
//! `// xtask:allow(<rule>) -- <reason>` on the same line or the line
//! above; a waiver without a reason is itself an error. Each pass
//! applies (and audits for staleness) only waivers naming its own
//! rules, so a lint run never flags an analyze waiver as unused and
//! vice versa.

pub mod analyses;
pub mod benchgate;
pub mod diag;
pub mod json;
pub mod lexer;
pub mod parse;
pub mod policy;
pub mod rules;
pub mod symbols;
pub mod tracecheck;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use diag::Format;
pub use policy::Policy;
pub use rules::{Diagnostic, ANALYZE_RULE_NAMES, LINT_RULE_NAMES, RULE_NAMES};

/// Entry point for the `xtask` binary. Returns the process exit code.
pub fn run<I: IntoIterator<Item = String>>(args: I) -> i32 {
    let args: Vec<String> = args.into_iter().collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_command(&args[1..]),
        Some("analyze") => analyze_command(&args[1..]),
        Some("check-trace") => check_trace_command(&args[1..]),
        Some("bench-gate") => benchgate::command(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n{USAGE}");
            2
        }
    }
}

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint [--root DIR] [--format text|json|github]
                      run the token-level domain lint pass over
                      crates/*/src (policy: xtask/lint_policy.toml)
  analyze [--root DIR] [--format text|json|github]
                      run the cross-crate semantic analyses (lock
                      order, atomics-ordering policy)
  check-trace [FILE]  validate Chrome trace-event JSON (from FILE, or
                      stdin when FILE is `-` or omitted) as exported
                      by GET /debug/trace
  bench-gate --baseline FILE --current FILE [--max-regression FRACTION]
                      compare a fresh BENCH_harvest.json against the
                      recorded baseline; fail when the fig8 fast-path
                      throughput regressed beyond the bound (default
                      0.10)";

fn check_trace_command(args: &[String]) -> i32 {
    let input = match args {
        [] => read_stdin(),
        [path] if path == "-" => read_stdin(),
        [path] => std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
        _ => Err("check-trace takes at most one FILE argument".into()),
    };
    let input = match input {
        Ok(input) => input,
        Err(e) => {
            eprintln!("xtask check-trace: {e}");
            return 2;
        }
    };
    match tracecheck::check_trace(&input) {
        Ok(summary) => {
            eprintln!("xtask check-trace: ok — {summary}");
            0
        }
        Err(e) => {
            eprintln!("xtask check-trace: {e}");
            1
        }
    }
}

fn read_stdin() -> Result<String, String> {
    use std::io::Read as _;
    let mut buf = String::new();
    std::io::stdin()
        .read_to_string(&mut buf)
        .map_err(|e| format!("cannot read stdin: {e}"))?;
    Ok(buf)
}

fn lint_command(args: &[String]) -> i32 {
    run_pass("lint", args, lint_workspace)
}

fn analyze_command(args: &[String]) -> i32 {
    run_pass("analyze", args, analyze_workspace)
}

/// Shared command plumbing for `lint` and `analyze`: `--root` /
/// `--format` parsing, rendering, and exit-code mapping (0 clean,
/// 1 findings, 2 usage or I/O error).
fn run_pass(
    name: &str,
    args: &[String],
    pass: fn(&Path) -> Result<Vec<Diagnostic>, String>,
) -> i32 {
    let mut root = PathBuf::from(".");
    let mut format = Format::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("xtask {name}: --root needs a directory");
                    return 2;
                }
            },
            "--format" => match it.next().map(|f| Format::parse(f)) {
                Some(Ok(f)) => format = f,
                Some(Err(e)) => {
                    eprintln!("xtask {name}: {e}");
                    return 2;
                }
                None => {
                    eprintln!("xtask {name}: --format needs a value (text, json, github)");
                    return 2;
                }
            },
            other => {
                eprintln!("xtask {name}: unknown argument `{other}`");
                return 2;
            }
        }
    }
    match pass(&root) {
        Ok(diags) => {
            let rendered = diag::render(&diags, format);
            if !rendered.is_empty() {
                print!("{rendered}");
            }
            if diags.is_empty() {
                eprintln!("xtask {name}: clean");
                0
            } else {
                eprintln!("xtask {name}: {} finding(s)", diags.len());
                1
            }
        }
        Err(e) => {
            eprintln!("xtask {name}: {e}");
            2
        }
    }
}

/// Lints every in-scope file under `root`, returning the surviving
/// diagnostics (waived findings removed, bad waivers added), plus an
/// audit of the policy file itself: every path listed in
/// `lint_policy.toml` must still exist on disk, or the entry has
/// rotted and silently allows nothing (or will silently allow a future
/// file nobody reviewed).
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let (policy, policy_text) = load_policy(root)?;

    let mut diags = Vec::new();
    for (relpath, source) in load_workspace_sources(root)? {
        diags.extend(lint_source(&relpath, &source, &policy));
    }

    for (key, path) in policy.all_entries() {
        if !root.join(path).exists() {
            diags.push(Diagnostic {
                file: "xtask/lint_policy.toml".to_string(),
                line: policy_entry_line(&policy_text, path),
                rule: "stale-policy-path",
                message: format!(
                    "[{key}] lists `{path}`, which no longer exists; remove the \
                     entry or fix the path"
                ),
            });
        }
    }
    Ok(diags)
}

/// Runs the semantic analyses over every in-scope file under `root`,
/// returning the surviving diagnostics (waivers applied per analyze
/// rule).
pub fn analyze_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let (policy, _) = load_policy(root)?;
    let sources = load_workspace_sources(root)?;
    Ok(analyze_source_set(&sources, &policy))
}

/// Analyzes a set of `(relpath, source)` files as one workspace and
/// applies analyze-scoped waivers (pure; used by the fixture tests).
pub fn analyze_source_set(sources: &[(String, String)], policy: &Policy) -> Vec<Diagnostic> {
    let raw = analyses::analyze_sources(sources, policy);
    let mut by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for d in raw {
        by_file.entry(d.file.clone()).or_default().push(d);
    }
    let mut out = Vec::new();
    for (relpath, source) in sources {
        let raw_for_file = by_file.remove(relpath.as_str()).unwrap_or_default();
        out.extend(apply_waivers(
            relpath,
            source,
            raw_for_file,
            WaiverScope::Analyze,
        ));
    }
    // Findings for files outside `sources` cannot happen (analyses only
    // see parsed sources), but never drop a diagnostic on the floor.
    out.extend(by_file.into_values().flatten());
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Reads and parses `xtask/lint_policy.toml` under `root`.
fn load_policy(root: &Path) -> Result<(Policy, String), String> {
    let policy_path = root.join("xtask/lint_policy.toml");
    let policy_text = std::fs::read_to_string(&policy_path)
        .map_err(|e| format!("cannot read {}: {e}", policy_path.display()))?;
    let policy =
        Policy::parse(&policy_text).map_err(|e| format!("{}: {e}", policy_path.display()))?;
    Ok((policy, policy_text))
}

/// Collects every in-scope file under `root` with its contents, sorted
/// by path.
fn load_workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();

    let mut sources = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let relpath = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((relpath, source));
    }
    Ok(sources)
}

/// The 1-based line on which a policy path literal appears (for
/// stale-entry diagnostics); line 1 when not found (multi-line arrays
/// aside, every entry is written as a quoted literal).
fn policy_entry_line(policy_text: &str, path: &str) -> u32 {
    let needle = format!("\"{path}\"");
    for (idx, line) in policy_text.lines().enumerate() {
        if line.contains(&needle) {
            return idx as u32 + 1;
        }
    }
    1
}

/// Lints one file's source text (pure; used by the fixture tests).
pub fn lint_source(relpath: &str, source: &str, policy: &Policy) -> Vec<Diagnostic> {
    let toks = lexer::scan(source);
    let mask = lexer::test_mask(&toks);
    let mut raw = Vec::new();
    rules::check_file(relpath, &toks, &mask, policy, &mut raw);
    apply_waivers(relpath, source, raw, WaiverScope::Lint)
}

/// In-scope: `.rs` files under a crate's `src/`, excluding binary
/// roots — the rules target library code that other crates link.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "bin" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") && name != "main.rs" {
            out.push(path);
        }
    }
    Ok(())
}

/// Which pass is applying waivers; each pass only registers (and
/// audits staleness of) waivers naming its own rules, while syntax
/// problems — malformed markers, unknown rules, missing reasons — are
/// reported by the lint pass alone so they surface exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaiverScope {
    /// `cargo xtask lint`: token-level rules.
    Lint,
    /// `cargo xtask analyze`: semantic rules.
    Analyze,
}

impl WaiverScope {
    fn rules(self) -> &'static [&'static str] {
        match self {
            WaiverScope::Lint => LINT_RULE_NAMES,
            WaiverScope::Analyze => ANALYZE_RULE_NAMES,
        }
    }

    /// Only the lint pass reports waiver-syntax problems.
    fn audits_syntax(self) -> bool {
        self == WaiverScope::Lint
    }
}

/// Applies `// xtask:allow(<rule>) -- reason` waivers: a finding is
/// waived by a matching comment on its own line or the line directly
/// above. Waivers without a reason, naming an unknown rule, or waiving
/// nothing are reported as findings themselves (syntax problems by the
/// lint pass; staleness by whichever pass owns the named rule).
fn apply_waivers(
    relpath: &str,
    source: &str,
    raw: Vec<Diagnostic>,
    scope: WaiverScope,
) -> Vec<Diagnostic> {
    // (line, rule) → whether some finding actually used the waiver.
    let mut waivers: BTreeMap<(u32, String), bool> = BTreeMap::new();
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let Some(pos) = line.find("xtask:allow(") else {
            continue;
        };
        if !line[..pos].contains("//") {
            continue; // the marker only counts inside a comment
        }
        let rest = &line[pos + "xtask:allow(".len()..];
        let Some(close) = rest.find(')') else {
            if scope.audits_syntax() {
                out.push(Diagnostic {
                    file: relpath.to_string(),
                    line: lineno,
                    rule: "no-panic",
                    message: "malformed waiver: missing `)`".into(),
                });
            }
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let Some(matched) = RULE_NAMES.iter().find(|r| **r == rule) else {
            if scope.audits_syntax() {
                out.push(Diagnostic {
                    file: relpath.to_string(),
                    line: lineno,
                    rule: "no-panic",
                    message: format!(
                        "waiver names unknown rule `{rule}` (known: {})",
                        RULE_NAMES.join(", ")
                    ),
                });
            }
            continue;
        };
        let reason = rest[close + 1..].trim();
        let reason_ok = reason
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        if !reason_ok {
            // A reason-less waiver never suppresses; only lint reports
            // it so the finding appears once across both passes.
            if scope.audits_syntax() {
                out.push(Diagnostic {
                    file: relpath.to_string(),
                    line: lineno,
                    rule: matched,
                    message: "waiver has no justification: write \
                              `// xtask:allow(rule) -- why this site is safe`"
                        .into(),
                });
            }
            continue;
        }
        if scope.rules().contains(matched) {
            waivers.insert((lineno, rule), false);
        }
    }

    for d in raw {
        let mut waived = false;
        for probe in [d.line, d.line.saturating_sub(1)] {
            if let Some(used) = waivers.get_mut(&(probe, d.rule.to_string())) {
                *used = true;
                waived = true;
                break;
            }
        }
        if !waived {
            out.push(d);
        }
    }

    for ((lineno, rule), used) in waivers {
        if !used {
            out.push(Diagnostic {
                file: relpath.to_string(),
                line: lineno,
                rule: RULE_NAMES
                    .iter()
                    .find(|r| **r == rule)
                    .copied()
                    .unwrap_or("no-panic"),
                message: format!("waiver for `{rule}` matches no finding; remove it"),
            });
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> Policy {
        Policy::parse("[instant-hot-path]\nhot = [\"crates/core/src/engine.rs\"]\n")
            .expect("test policy")
    }

    #[test]
    fn waiver_suppresses_and_unused_waiver_reports() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // xtask:allow(no-panic) -- caller guarantees Some\n    x.unwrap()\n}\n";
        assert!(lint_source("crates/a/src/lib.rs", src, &policy()).is_empty());

        let unused = "fn f() {}\n// xtask:allow(no-panic) -- nothing here\n";
        let d = lint_source("crates/a/src/lib.rs", unused, &policy());
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("matches no finding"));
    }

    #[test]
    fn waiver_without_reason_is_a_finding() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // xtask:allow(no-panic)\n}\n";
        let d = lint_source("crates/a/src/lib.rs", src, &policy());
        assert!(d.iter().any(|d| d.message.contains("no justification")));
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint_source("crates/a/src/lib.rs", src, &policy()).is_empty());
    }

    #[test]
    fn hot_path_scoping_is_per_file() {
        let src = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(
            lint_source("crates/core/src/engine.rs", src, &policy()).len(),
            1
        );
        assert!(lint_source("crates/core/src/other.rs", src, &policy()).is_empty());
    }
}
