//! Machine-readable benchmark reports (`BENCH_harvest.json`).
//!
//! The workspace has no JSON dependency, so this module writes the one
//! shape the benches need by hand — a flat two-level object mapping
//! section names to `{key: number}` metric maps — and reads it back
//! through the workspace's one JSON reader (`xtask::json`, shared with
//! `cargo xtask bench-gate` and `check-trace`). Several binaries share one
//! report file — [`BenchReport::update_file`] merges key by key, so
//! `fig8_throughput` and `engine_scaling` can both contribute to a
//! shared `simd` section without the later run clobbering the earlier
//! one's keys. A binary that is the sole author of a section declares
//! it with [`BenchReport::own_section`]; owned sections replace the
//! on-disk section wholesale, so keys a re-run no longer emits (e.g.
//! a changed sweep grid) cannot linger as stale data.

use std::io;
use std::path::{Path, PathBuf};

use xtask::json::{self, Json};

/// Default location of the shared report file: `$DRANGE_BENCH_REPORT`
/// if set, otherwise `BENCH_harvest.json` in the current directory
/// (the repository root when running `cargo run -p drange-bench`).
pub fn bench_report_path() -> PathBuf {
    std::env::var_os("DRANGE_BENCH_REPORT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_harvest.json"))
}

/// An ordered, two-level `{section: {key: number}}` report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    sections: Vec<(String, Vec<(String, f64)>)>,
    /// Sections this report is the sole author of: replaced wholesale
    /// (not key-merged) when folded over an on-disk report.
    owned: Vec<String>,
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        BenchReport::default()
    }

    /// Sets `section.key = value`, replacing any previous value and
    /// creating the section on first use. Insertion order is preserved
    /// in the emitted JSON.
    pub fn set(&mut self, section: &str, key: &str, value: f64) {
        let entries = match self.sections.iter_mut().find(|(s, _)| s == section) {
            Some((_, entries)) => entries,
            None => {
                self.sections.push((section.to_string(), Vec::new()));
                // xtask:allow(no-panic) -- the section was pushed on the line above
                &mut self.sections.last_mut().expect("just pushed").1
            }
        };
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => entries.push((key.to_string(), value)),
        }
    }

    /// Reads `section.key` back, if present.
    pub fn get(&self, section: &str, key: &str) -> Option<f64> {
        self.sections
            .iter()
            .find(|(s, _)| s == section)
            .and_then(|(_, entries)| entries.iter().find(|(k, _)| k == key))
            .map(|(_, v)| *v)
    }

    /// Declares this report the sole author of `section`: when folded
    /// over an on-disk report, the section is replaced wholesale
    /// instead of key-merged, so keys a re-run no longer emits cannot
    /// linger as stale data (e.g. a sweep whose grid changed).
    pub fn own_section(&mut self, section: &str) {
        if !self.owned.iter().any(|s| s == section) {
            self.owned.push(section.to_string());
        }
    }

    /// Folds `other` into `self`: sections `other` [owns](Self::own_section)
    /// are replaced wholesale; everything else merges key by key —
    /// matching `section.key` entries are overwritten, new keys and new
    /// sections are appended, keys `other` doesn't mention survive. The
    /// key-level default lets binaries share a section (fig8 and
    /// engine_scaling both contribute to `simd`) without the later run
    /// clobbering the earlier one's keys.
    pub fn merge_sections_from(&mut self, other: &BenchReport) {
        for (section, entries) in &other.sections {
            match self.sections.iter_mut().find(|(s, _)| s == section) {
                Some((_, mine)) => {
                    if other.owned.iter().any(|s| s == section) {
                        *mine = entries.clone();
                        continue;
                    }
                    for (key, value) in entries {
                        match mine.iter_mut().find(|(k, _)| k == key) {
                            Some((_, v)) => *v = *value,
                            None => mine.push((key.clone(), *value)),
                        }
                    }
                }
                None => self.sections.push((section.clone(), entries.clone())),
            }
        }
    }

    /// Serializes to pretty-printed JSON. Non-finite values are emitted
    /// as `null` (JSON has no NaN/Infinity).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (si, (section, entries)) in self.sections.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(&escape(section));
            out.push_str("\": {\n");
            for (ki, (key, value)) in entries.iter().enumerate() {
                out.push_str("    \"");
                out.push_str(&escape(key));
                out.push_str("\": ");
                if value.is_finite() {
                    out.push_str(&format!("{value}"));
                } else {
                    out.push_str("null");
                }
                out.push_str(if ki + 1 < entries.len() { ",\n" } else { "\n" });
            }
            out.push_str(if si + 1 < self.sections.len() {
                "  },\n"
            } else {
                "  }\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// Parses JSON previously produced by [`BenchReport::to_json`]
    /// (flat two-level object, numeric or null leaves — null leaves are
    /// dropped) with the workspace's JSON reader. Returns `None` on any
    /// syntax error or structural mismatch.
    pub fn from_json(text: &str) -> Option<BenchReport> {
        let Json::Object(top) = json::parse(text).ok()? else {
            return None;
        };
        let mut report = BenchReport::new();
        for (section, entries) in top.iter() {
            let Json::Object(entries) = entries else {
                return None;
            };
            // Empty sections are kept so merge semantics see them.
            report.sections.push((section.to_string(), Vec::new()));
            for (key, value) in entries.iter() {
                match value {
                    Json::Number(v) => report.set(section, key, *v),
                    Json::Null => {}
                    _ => return None,
                }
            }
        }
        Some(report)
    }

    /// Merges this report's sections over whatever `path` already holds
    /// (unparseable or missing files are treated as empty) and writes
    /// the result back.
    ///
    /// # Errors
    ///
    /// Propagates filesystem write errors.
    pub fn update_file(&self, path: &Path) -> io::Result<()> {
        let mut merged = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| BenchReport::from_json(&text))
            .unwrap_or_default();
        merged.merge_sections_from(self);
        std::fs::write(path, merged.to_json())
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_order() {
        let mut r = BenchReport::new();
        r.set("fig8", "fast_bits_per_sec", 2.5e8);
        r.set("fig8", "speedup", 7.0);
        r.set("engine", "cache_hit_rate", 0.93);
        r.set("fig8", "speedup", 8.0); // overwrite
        assert_eq!(r.get("fig8", "speedup"), Some(8.0));
        assert_eq!(r.get("engine", "cache_hit_rate"), Some(0.93));
        assert_eq!(r.get("engine", "missing"), None);
        assert_eq!(r.get("nope", "x"), None);
        let json = r.to_json();
        let fig8_at = json.find("fig8").unwrap();
        let engine_at = json.find("engine").unwrap();
        assert!(fig8_at < engine_at, "insertion order preserved:\n{json}");
    }

    #[test]
    fn json_round_trips() {
        let mut r = BenchReport::new();
        r.set("fig8_throughput", "slow_bits_per_sec", 1.25e7);
        r.set("fig8_throughput", "fast_bits_per_sec", 2.5e8);
        r.set("fig8_throughput", "ns_per_read", 43.21);
        r.set("engine_scaling", "bits_per_sec", 9.5e7);
        let back = BenchReport::from_json(&r.to_json()).expect("own output parses");
        assert_eq!(back, r);
    }

    #[test]
    fn non_finite_becomes_null_and_is_dropped_on_parse() {
        let mut r = BenchReport::new();
        r.set("s", "bad", f64::NAN);
        r.set("s", "good", 1.0);
        let json = r.to_json();
        assert!(json.contains("null"), "{json}");
        let back = BenchReport::from_json(&json).expect("parses");
        assert_eq!(back.get("s", "bad"), None);
        assert_eq!(back.get("s", "good"), Some(1.0));
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in ["", "{", "[1,2]", "{\"a\": 1}", "{\"a\": {\"b\": }}", "x{}"] {
            assert!(BenchReport::from_json(bad).is_none(), "accepted {bad:?}");
        }
        assert_eq!(
            BenchReport::from_json("{}"),
            Some(BenchReport::new()),
            "empty object is a valid empty report"
        );
    }

    #[test]
    fn merge_overrides_matching_keys_and_keeps_others() {
        let mut old = BenchReport::new();
        old.set("fig8_throughput", "speedup", 1.0);
        old.set("engine_scaling", "bits_per_sec", 5.0);
        let mut new = BenchReport::new();
        new.set("fig8_throughput", "speedup", 9.0);
        old.merge_sections_from(&new);
        assert_eq!(old.get("fig8_throughput", "speedup"), Some(9.0));
        assert_eq!(old.get("engine_scaling", "bits_per_sec"), Some(5.0));
    }

    #[test]
    fn owned_sections_replace_wholesale() {
        // A sweep whose grid changed must not leave the old grid's
        // keys behind when the binary owns the section.
        let mut old = BenchReport::new();
        old.set("engine_scaling", "workers_3_device_bits_per_sec", 1.0);
        old.set("engine_scaling", "bits_per_sec", 2.0);
        old.set("server_load", "req_per_s", 9.0);
        let mut new = BenchReport::new();
        new.set("engine_scaling", "workers_12_device_bits_per_sec", 5.0);
        new.own_section("engine_scaling");
        old.merge_sections_from(&new);
        assert_eq!(
            old.get("engine_scaling", "workers_3_device_bits_per_sec"),
            None
        );
        assert_eq!(old.get("engine_scaling", "bits_per_sec"), None);
        assert_eq!(
            old.get("engine_scaling", "workers_12_device_bits_per_sec"),
            Some(5.0)
        );
        assert_eq!(old.get("server_load", "req_per_s"), Some(9.0));
    }

    #[test]
    fn merge_is_key_level_within_a_shared_section() {
        // fig8 and engine_scaling both write the `simd` section; the
        // later run must not clobber the earlier run's keys.
        let mut old = BenchReport::new();
        old.set("simd", "engine_lane_utilization", 0.9);
        old.set("simd", "speedup", 1.0);
        let mut new = BenchReport::new();
        new.set("simd", "speedup", 14.7);
        new.set("simd", "lane_utilization", 0.97);
        old.merge_sections_from(&new);
        assert_eq!(old.get("simd", "engine_lane_utilization"), Some(0.9));
        assert_eq!(old.get("simd", "speedup"), Some(14.7));
        assert_eq!(old.get("simd", "lane_utilization"), Some(0.97));
    }

    #[test]
    fn update_file_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("drange-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_harvest.json");
        let _ = std::fs::remove_file(&path);

        let mut a = BenchReport::new();
        a.set("fig8_throughput", "speedup", 6.5);
        a.update_file(&path).expect("first write");
        let mut b = BenchReport::new();
        b.set("engine_scaling", "cache_hit_rate", 0.97);
        b.update_file(&path).expect("merge write");

        let text = std::fs::read_to_string(&path).expect("file exists");
        let merged = BenchReport::from_json(&text).expect("parses");
        assert_eq!(merged.get("fig8_throughput", "speedup"), Some(6.5));
        assert_eq!(merged.get("engine_scaling", "cache_hit_rate"), Some(0.97));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn update_file_tolerates_corrupted_existing_report() {
        let dir = std::env::temp_dir().join(format!("drange-bench-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_harvest.json");

        // Truncated, non-JSON, and binary junk: each must be treated as
        // an empty report — the new sections are written out and the
        // file is valid JSON again afterwards.
        for junk in [
            "{\"fig8_throughput\": {\"speedup\"",
            "not json at all",
            "\u{0}\u{1}\u{2}\u{ff}",
        ] {
            std::fs::write(&path, junk).expect("seed corruption");
            let mut r = BenchReport::new();
            r.set("engine_scaling", "bits_per_sec", 4.2e7);
            r.update_file(&path).expect("overwrite corrupted file");
            let text = std::fs::read_to_string(&path).expect("file exists");
            let back = BenchReport::from_json(&text).expect("file is valid JSON again");
            assert_eq!(back.get("engine_scaling", "bits_per_sec"), Some(4.2e7));
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn update_file_keeps_parseable_sections_of_a_partial_report() {
        let dir = std::env::temp_dir().join(format!("drange-bench-partial-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_harvest.json");

        // A well-formed report with a null leaf (e.g. a NaN metric from
        // an earlier run) still merges: the null is dropped, the other
        // sections survive the round trip.
        std::fs::write(
            &path,
            "{\n  \"fig8_throughput\": {\"speedup\": 6.5, \"bad\": null},\n  \"old\": {}\n}\n",
        )
        .expect("seed partial report");
        let mut r = BenchReport::new();
        r.set("engine_scaling", "cache_hit_rate", 0.97);
        r.update_file(&path).expect("merge write");
        let text = std::fs::read_to_string(&path).expect("file exists");
        let back = BenchReport::from_json(&text).expect("parses");
        assert_eq!(back.get("fig8_throughput", "speedup"), Some(6.5));
        assert_eq!(back.get("fig8_throughput", "bad"), None);
        assert_eq!(back.get("engine_scaling", "cache_hit_rate"), Some(0.97));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn update_file_propagates_unwritable_destination() {
        // The destination is a directory: the write must surface an
        // io::Error instead of panicking (the bench bins log and
        // continue).
        let dir = std::env::temp_dir().join(format!("drange-bench-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut r = BenchReport::new();
        r.set("s", "k", 1.0);
        assert!(r.update_file(&dir).is_err());
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn escaped_keys_survive() {
        let mut r = BenchReport::new();
        r.set("se\"ct", "k\\ey", 1.0);
        let back = BenchReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.get("se\"ct", "k\\ey"), Some(1.0));
    }
}
