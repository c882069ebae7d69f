//! Fixture tests for `cargo xtask analyze`: the clean fixtures must
//! produce no findings (the negative cases each analysis must not
//! fire on), and the dirty fixtures must report exactly their
//! `FINDING <rule>` markers.

use std::collections::BTreeSet;

use xtask::{analyze_source_set, Policy};

const LOCK_DIRTY: &str = include_str!("fixtures/analyze/lock_dirty.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/analyze/lock_clean.rs");
const ATOMICS_DIRTY: &str = include_str!("fixtures/analyze/atomics_dirty.rs");
const ATOMICS_CLEAN: &str = include_str!("fixtures/analyze/atomics_clean.rs");

/// The clean atomics fixture is the one file the test policy grants
/// `Relaxed` and Acquire/Release.
const ATOMICS_CLEAN_PATH: &str = "crates/demo/src/atomics_clean.rs";

fn policy() -> Policy {
    Policy::parse(&format!(
        "[atomics-policy]\n\
         relaxed = [\"{ATOMICS_CLEAN_PATH}\"]\n\
         acquire-release = [\"{ATOMICS_CLEAN_PATH}\"]\n"
    ))
    .expect("fixture policy")
}

fn analyze_one(relpath: &str, source: &str) -> Vec<(u32, String)> {
    let sources = vec![(relpath.to_string(), source.to_string())];
    analyze_source_set(&sources, &policy())
        .into_iter()
        .map(|d| (d.line, d.rule.to_string()))
        .collect()
}

/// The expected findings, read off a fixture's own `FINDING <rule>
/// [xN]` markers: (line, rule) pairs, one per expected finding.
fn expected(marked: &str) -> Vec<(u32, String)> {
    let mut want = Vec::new();
    for (idx, line) in marked.lines().enumerate() {
        let Some(pos) = line.find("FINDING ") else {
            continue;
        };
        let mut parts = line[pos + "FINDING ".len()..].split_whitespace();
        let rule = parts.next().expect("marker names a rule").to_string();
        let count = parts
            .next()
            .and_then(|c| c.strip_prefix('x'))
            .and_then(|c| c.parse::<usize>().ok())
            .unwrap_or(1);
        for _ in 0..count {
            want.push((idx as u32 + 1, rule.clone()));
        }
    }
    want.sort();
    want
}

#[test]
fn clean_fixtures_analyze_clean() {
    for (path, src) in [
        ("crates/demo/src/lock_clean.rs", LOCK_CLEAN),
        (ATOMICS_CLEAN_PATH, ATOMICS_CLEAN),
    ] {
        let got = analyze_one(path, src);
        assert!(got.is_empty(), "{path} produced findings: {got:?}");
    }
}

#[test]
fn dirty_fixtures_match_their_markers() {
    for (path, src) in [
        ("crates/demo/src/lock_dirty.rs", LOCK_DIRTY),
        ("crates/demo/src/atomics_dirty.rs", ATOMICS_DIRTY),
    ] {
        let mut got = analyze_one(path, src);
        got.sort();
        assert_eq!(
            got,
            expected(src),
            "{path} findings diverge from its FINDING markers"
        );
    }
}

#[test]
fn dirty_fixtures_cover_every_analyze_rule() {
    let rules: BTreeSet<String> = [LOCK_DIRTY, ATOMICS_DIRTY]
        .iter()
        .flat_map(|s| expected(s))
        .map(|(_, r)| r)
        .collect();
    for rule in xtask::ANALYZE_RULE_NAMES {
        assert!(
            rules.contains(*rule),
            "dirty fixtures exercise no `{rule}` finding"
        );
    }
}

#[test]
fn analyze_excluded_files_are_skipped() {
    let policy =
        Policy::parse("[analyze]\nexclude = [\"crates/demo/src\"]\n").expect("exclude policy");
    let sources = vec![(
        "crates/demo/src/lock_dirty.rs".to_string(),
        LOCK_DIRTY.to_string(),
    )];
    assert!(
        analyze_source_set(&sources, &policy).is_empty(),
        "excluded file still produced findings"
    );
}
