//! `cargo xtask bench-gate` — fail when a gated bench metric regresses.
//!
//! Compares a freshly produced `BENCH_harvest.json` against the
//! recorded baseline (the committed report, snapshotted before the
//! bench run overwrites it) and exits non-zero when any gate fails:
//!
//! * `fig8_throughput.fast_ns_per_read` — the harvest fast path's
//!   per-READ cost (lower is better). CI's quick run gates against the
//!   committed full-scale number, but the two scales time different
//!   plans (the quick run profiles 4 banks, the full run 8) and the
//!   baseline was recorded on another host, so the comparison is only
//!   approximate.
//! * `drbg.fast_serve_mbps` — the conditioning tier's serve rate
//!   (higher is better), held to the same allowed-regression fraction.
//! * the tier split: the current report's `drbg.fast_serve_mbps` must
//!   be at least 10x its `drbg.raw_serve_mbps` — the fast tier exists
//!   to decouple serve rate from harvest rate, and a fast path within
//!   10x of raw has silently re-coupled them.
//!
//! The report format is the two-level `{section: {key: number}}` JSON
//! that `drange-bench`'s `BenchReport` emits; [`parse_report`] reads it
//! through the workspace's JSON reader ([`crate::json`]), accepts
//! exactly that shape (plus string and `null` values, skipped) and
//! rejects anything deeper, so a corrupted report fails the gate
//! loudly instead of green-lighting a regression.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};

/// The harvest gate: lower is better (ns of wall time per sensed READ
/// on the memoizing fast path).
const SECTION: &str = "fig8_throughput";
const KEY: &str = "fast_ns_per_read";

/// The conditioning-tier gate: higher is better (sustained Mbit/s of
/// single-threaded DRBG serve), plus the in-report tier split.
const DRBG_SECTION: &str = "drbg";
const DRBG_FAST_KEY: &str = "fast_serve_mbps";
const DRBG_RAW_KEY: &str = "raw_serve_mbps";

/// Minimum ratio of `fast_serve_mbps` over `raw_serve_mbps` in the
/// *current* report: the fast tier must outserve raw harvest by at
/// least this factor or the QoS split has lost its point.
const DRBG_MIN_TIER_SPLIT: f64 = 10.0;

/// Default allowed throughput regression (fraction). Throughput is
/// 1/ns_per_read, so a 10 % throughput loss corresponds to a ~11.1 %
/// ns/READ increase — the gate converts accordingly.
const DEFAULT_MAX_REGRESSION: f64 = 0.10;

/// Reads the `{section: {key: value}}` report shape into a flat map.
/// String and `null` values are tolerated (and not gated on: a gated
/// metric that is absent fails the gate anyway); any other nesting is
/// an error.
pub fn parse_report(text: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let top = match json::parse(text)? {
        Json::Object(top) => top,
        other => return Err(format!("a report is an object, got {}", other.kind())),
    };
    let mut out = BTreeMap::new();
    for (section, entries) in top.iter() {
        let Json::Object(entries) = entries else {
            return Err(format!(
                "section `{section}` must be an object, got {}",
                entries.kind()
            ));
        };
        for (key, value) in entries.iter() {
            match value {
                Json::Number(v) => {
                    out.insert((section.to_string(), key.to_string()), *v);
                }
                Json::String(_) | Json::Null => {}
                other => {
                    return Err(format!(
                        "`{section}.{key}` must be a number, got {}",
                        other.kind()
                    ))
                }
            }
        }
    }
    Ok(out)
}

/// Runs every gate: `Ok(summary)` when the current report is within
/// the allowed regression of the baseline on all gated metrics and
/// satisfies the tier-split invariant, `Err(reason)` otherwise
/// (including unreadable/ill-formed reports and missing metrics — a
/// gate that cannot measure must not pass).
pub fn gate(baseline: &str, current: &str, max_regression: f64) -> Result<String, String> {
    if !(0.0..1.0).contains(&max_regression) {
        return Err(format!(
            "--max-regression must be in [0, 1), got {max_regression}"
        ));
    }
    let base_map = parse_report(baseline).map_err(|e| format!("baseline report: {e}"))?;
    let cur_map = parse_report(current).map_err(|e| format!("current report: {e}"))?;
    let metric = |map: &BTreeMap<(String, String), f64>,
                  which: &str,
                  section: &str,
                  key: &str|
     -> Result<f64, String> {
        map.get(&(section.to_string(), key.to_string()))
            .copied()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("{which} report has no usable `{section}.{key}`"))
    };

    let mut summary = String::new();
    let mut failures = String::new();

    // Gate 1: harvest fast path, lower is better. throughput ∝
    // 1/ns_per_read: a `max_regression` throughput loss allows ns/READ
    // up to baseline / (1 - max_regression).
    let base_ns = metric(&base_map, "baseline", SECTION, KEY)?;
    let cur_ns = metric(&cur_map, "current", SECTION, KEY)?;
    let allowed_ns = base_ns / (1.0 - max_regression);
    let _ = writeln!(
        summary,
        "bench-gate: {SECTION}.{KEY} baseline {base_ns:.1} ns, current {cur_ns:.1} ns \
         (allowed ≤ {allowed_ns:.1} ns for a ≤{:.0}% throughput regression)",
        max_regression * 100.0
    );
    if cur_ns > allowed_ns {
        let loss = (1.0 - base_ns / cur_ns) * 100.0;
        let _ = writeln!(
            failures,
            "fast path regressed: {cur_ns:.1} ns/READ is a {loss:.1}% throughput \
             loss vs the recorded baseline ({base_ns:.1} ns)"
        );
    }

    // Gate 2: conditioning tier serve rate, higher is better.
    let base_mbps = metric(&base_map, "baseline", DRBG_SECTION, DRBG_FAST_KEY)?;
    let cur_mbps = metric(&cur_map, "current", DRBG_SECTION, DRBG_FAST_KEY)?;
    let floor_mbps = base_mbps * (1.0 - max_regression);
    let _ = writeln!(
        summary,
        "bench-gate: {DRBG_SECTION}.{DRBG_FAST_KEY} baseline {base_mbps:.0} Mbit/s, \
         current {cur_mbps:.0} Mbit/s (allowed ≥ {floor_mbps:.0} Mbit/s)",
    );
    if cur_mbps < floor_mbps {
        let loss = (1.0 - cur_mbps / base_mbps) * 100.0;
        let _ = writeln!(
            failures,
            "conditioning tier regressed: {cur_mbps:.0} Mbit/s is a {loss:.1}% serve-rate \
             loss vs the recorded baseline ({base_mbps:.0} Mbit/s)"
        );
    }

    // Gate 3: the tier split inside the current report.
    let cur_raw_mbps = metric(&cur_map, "current", DRBG_SECTION, DRBG_RAW_KEY)?;
    let split = cur_mbps / cur_raw_mbps;
    let _ = writeln!(
        summary,
        "bench-gate: tier split {split:.1}x (fast {cur_mbps:.0} / raw {cur_raw_mbps:.0} \
         Mbit/s, required ≥ {DRBG_MIN_TIER_SPLIT:.0}x)",
    );
    if split < DRBG_MIN_TIER_SPLIT {
        let _ = writeln!(
            failures,
            "tier split collapsed: fast serves only {split:.1}x raw (required ≥ \
             {DRBG_MIN_TIER_SPLIT:.0}x) — the fast tier has re-coupled to harvest rate"
        );
    }

    if failures.is_empty() {
        let _ = write!(
            summary,
            "bench-gate: OK ({:+.1}% harvest throughput, {:+.1}% fast serve rate vs baseline)",
            (base_ns / cur_ns - 1.0) * 100.0,
            (cur_mbps / base_mbps - 1.0) * 100.0
        );
        Ok(summary)
    } else {
        Err(format!("{summary}{failures}"))
    }
}

/// CLI front-end: `bench-gate --baseline FILE --current FILE
/// [--max-regression FRACTION]`.
pub fn command(args: &[String]) -> i32 {
    let mut baseline = None;
    let mut current = None;
    let mut max_regression = DEFAULT_MAX_REGRESSION;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline = it.next().cloned(),
            "--current" => current = it.next().cloned(),
            "--max-regression" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(v)) => max_regression = v,
                _ => {
                    eprintln!("bench-gate: --max-regression needs a numeric fraction");
                    return 2;
                }
            },
            other => {
                eprintln!("bench-gate: unknown argument `{other}`");
                return 2;
            }
        }
    }
    let (Some(baseline), Some(current)) = (baseline, current) else {
        eprintln!("usage: cargo xtask bench-gate --baseline FILE --current FILE [--max-regression FRACTION]");
        return 2;
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let result = read(&baseline).and_then(|b| {
        let c = read(&current)?;
        gate(&b, &c, max_regression)
    });
    match result {
        Ok(summary) => {
            println!("{summary}");
            0
        }
        Err(reason) => {
            eprintln!("bench-gate: FAIL\n{reason}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report(fast_ns: f64, fast_mbps: f64, raw_mbps: f64) -> String {
        format!(
            "{{\n  \"fig8_throughput\": {{\n    \"fast_ns_per_read\": {fast_ns},\n    \
             \"speedup\": 5.1\n  }},\n  \"drbg\": {{\n    \"fast_serve_mbps\": {fast_mbps},\n    \
             \"raw_serve_mbps\": {raw_mbps}\n  }},\n  \"simd\": {{\n    \
             \"lane_utilization\": 1\n  }}\n}}"
        )
    }

    fn report(fast_ns: f64) -> String {
        full_report(fast_ns, 3000.0, 100.0)
    }

    #[test]
    fn parses_the_bench_report_shape() {
        let map = parse_report(&report(352.5)).expect("parses");
        assert_eq!(
            map[&("fig8_throughput".into(), "fast_ns_per_read".into())],
            352.5
        );
        assert_eq!(map[&("simd".into(), "lane_utilization".into())], 1.0);
        assert!(parse_report("{}").expect("empty object").is_empty());
    }

    #[test]
    fn tolerates_string_values_and_escapes() {
        let text = "{\"s\": {\"note\": \"a \\\"quoted\\\" label\", \"v\": -1.5e2}}";
        let map = parse_report(text).expect("parses");
        assert_eq!(map[&("s".into(), "v".into())], -150.0);
        assert_eq!(map.len(), 1, "string metrics are skipped, not gated");
    }

    #[test]
    fn rejects_malformed_reports() {
        for bad in ["", "{", "{\"a\": 1}", "{\"a\": {\"b\": }}", "[1, 2]"] {
            assert!(parse_report(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn passes_within_the_allowed_regression() {
        // 10% throughput regression allows ns/READ up to base/0.9.
        let ok = gate(&report(100.0), &report(110.0), 0.10).expect("within bound");
        assert!(ok.contains("OK"), "{ok}");
        gate(&report(100.0), &report(90.0), 0.10).expect("improvement passes");
    }

    #[test]
    fn fails_beyond_the_allowed_regression() {
        let err = gate(&report(100.0), &report(112.0), 0.10).expect_err("beyond bound");
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn fails_when_the_metric_is_missing_or_unusable() {
        let no_metric = "{\"other\": {\"k\": 1}}";
        assert!(gate(no_metric, &report(100.0), 0.10).is_err());
        assert!(gate(&report(100.0), no_metric, 0.10).is_err());
        assert!(
            gate(&report(0.0), &report(100.0), 0.10).is_err(),
            "zero baseline"
        );
        assert!(
            gate(&report(100.0), &report(100.0), 1.5).is_err(),
            "bad fraction"
        );
        // A report without the drbg section cannot pass either side.
        let fig8_only = "{\"fig8_throughput\": {\"fast_ns_per_read\": 100.0}}";
        let err = gate(fig8_only, &report(100.0), 0.10).expect_err("missing drbg baseline");
        assert!(err.contains("drbg.fast_serve_mbps"), "{err}");
        assert!(gate(&report(100.0), fig8_only, 0.10).is_err());
    }

    #[test]
    fn gates_the_conditioning_tier_serve_rate() {
        // A 5% serve-rate dip passes the 10% gate; a 20% dip fails it.
        let base = full_report(100.0, 3000.0, 100.0);
        gate(&base, &full_report(100.0, 2850.0, 100.0), 0.10).expect("within bound");
        let err = gate(&base, &full_report(100.0, 2400.0, 100.0), 0.10)
            .expect_err("serve-rate regression");
        assert!(err.contains("conditioning tier regressed"), "{err}");
        // Improvements pass and are reported.
        let ok = gate(&base, &full_report(100.0, 4000.0, 100.0), 0.10).expect("improvement");
        assert!(ok.contains("OK"), "{ok}");
    }

    #[test]
    fn enforces_the_tier_split_in_the_current_report() {
        let base = full_report(100.0, 3000.0, 100.0);
        // fast = 9x raw: the serve rate is fine vs baseline (higher,
        // even), but the split invariant fails.
        let err = gate(&base, &full_report(100.0, 3600.0, 400.0), 0.10)
            .expect_err("collapsed tier split");
        assert!(err.contains("tier split collapsed"), "{err}");
        // Exactly 10x passes.
        gate(&base, &full_report(100.0, 4000.0, 400.0), 0.10).expect("10x split passes");
    }

    #[test]
    fn reports_every_failing_gate_at_once() {
        let base = full_report(100.0, 3000.0, 100.0);
        let err =
            gate(&base, &full_report(150.0, 900.0, 100.0), 0.10).expect_err("both gates fail");
        assert!(err.contains("fast path regressed"), "{err}");
        assert!(err.contains("conditioning tier regressed"), "{err}");
    }
}
