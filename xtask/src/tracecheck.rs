//! Shape checker for Chrome trace-event JSON (`cargo xtask check-trace`).
//!
//! The flight recorder's `/debug/trace` endpoint promises output that
//! `chrome://tracing` / Perfetto can load: a top-level object with a
//! `traceEvents` array of event objects, each carrying `name`, `ph`,
//! `ts`, `pid` and `tid`, with complete (`"ph": "X"`) events also
//! carrying `dur`. CI feeds a live capture through this checker so a
//! malformed export fails the smoke job instead of a human's browser.
//!
//! Syntax is checked by the workspace's strict JSON reader
//! ([`crate::json`]): trailing commas, bare words and unescaped control
//! characters are errors, because the exporter is supposed to emit
//! spec-clean output.

use std::fmt;

use crate::json::{parse, Json};

/// What a valid trace looked like, for the CI log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete (`"ph": "X"`) span events.
    pub spans: usize,
    /// Instant (`"ph": "i"`) events.
    pub instants: usize,
    /// Distinct traces, counted by distinct `args.trace` values (the
    /// exporter keeps `pid` constant and carries the trace id in
    /// `args`); events without one fall back to their `pid`.
    pub traces: usize,
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} event(s): {} span(s), {} instant(s) across {} trace(s)",
            self.events, self.spans, self.instants, self.traces
        )
    }
}

/// Validates `input` as Chrome trace-event JSON.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found:
/// JSON syntax errors, a missing/naked `traceEvents` array, or an
/// event missing one of the required fields.
pub fn check_trace(input: &str) -> Result<TraceSummary, String> {
    let root = parse(input)?;
    let Json::Object(top) = &root else {
        return Err(format!("top level must be an object, got {}", root.kind()));
    };
    let Some(events) = top.get("traceEvents") else {
        return Err("top-level object is missing `traceEvents`".into());
    };
    let Json::Array(events) = events else {
        return Err(format!(
            "`traceEvents` must be an array, got {}",
            events.kind()
        ));
    };

    let mut summary = TraceSummary {
        events: events.len(),
        spans: 0,
        instants: 0,
        traces: 0,
    };
    let mut traces: Vec<String> = Vec::new();
    for (index, event) in events.iter().enumerate() {
        let Json::Object(fields) = event else {
            return Err(format!(
                "traceEvents[{index}] must be an object, got {}",
                event.kind()
            ));
        };
        let field = |name: &str| {
            fields
                .get(name)
                .ok_or_else(|| format!("traceEvents[{index}] is missing `{name}`"))
        };
        let Json::String(ph) = field("ph")? else {
            return Err(format!("traceEvents[{index}].ph must be a string"));
        };
        let Json::String(name) = field("name")? else {
            return Err(format!("traceEvents[{index}].name must be a string"));
        };
        if name.is_empty() {
            return Err(format!("traceEvents[{index}].name is empty"));
        }
        let Json::Number(ts) = field("ts")? else {
            return Err(format!("traceEvents[{index}].ts must be a number"));
        };
        if !ts.is_finite() || *ts < 0.0 {
            return Err(format!("traceEvents[{index}].ts must be finite and >= 0"));
        }
        let Json::Number(pid) = field("pid")? else {
            return Err(format!("traceEvents[{index}].pid must be a number"));
        };
        let Json::Number(_) = field("tid")? else {
            return Err(format!("traceEvents[{index}].tid must be a number"));
        };
        match ph.as_str() {
            "X" => {
                summary.spans += 1;
                let Json::Number(dur) = field("dur")? else {
                    return Err(format!("traceEvents[{index}].dur must be a number"));
                };
                if !dur.is_finite() || *dur < 0.0 {
                    return Err(format!("traceEvents[{index}].dur must be finite and >= 0"));
                }
            }
            "i" => summary.instants += 1,
            other => {
                return Err(format!(
                    "traceEvents[{index}].ph is `{other}`; the exporter only \
                     emits complete (`X`) and instant (`i`) events"
                ));
            }
        }
        let trace_key = match fields.get("args") {
            Some(Json::Object(args)) => match args.get("trace") {
                Some(Json::String(trace)) => trace.clone(),
                _ => format!("pid:{pid}"),
            },
            _ => format!("pid:{pid}"),
        };
        if !traces.contains(&trace_key) {
            traces.push(trace_key);
        }
    }
    summary.traces = traces.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "displayTimeUnit": "ms",
        "traceEvents": [
            {"name": "serve.request", "ph": "X", "ts": 0, "dur": 1500,
             "pid": 1, "tid": 1, "args": {"trace": "00c0ffee", "path": "/random"}},
            {"name": "serve.parse", "ph": "X", "ts": 10.5, "dur": 40,
             "pid": 1, "tid": 1, "args": {"trace": "00c0ffee"}},
            {"name": "blocked", "ph": "i", "ts": 60, "pid": 7, "tid": 2, "s": "t"}
        ]
    }"#;

    #[test]
    fn accepts_well_formed_traces() {
        let summary = check_trace(GOOD).expect("good trace");
        assert_eq!(
            summary,
            TraceSummary {
                events: 3,
                spans: 2,
                instants: 1,
                traces: 2
            }
        );
        assert_eq!(
            summary.to_string(),
            "3 event(s): 2 span(s), 1 instant(s) across 2 trace(s)"
        );
    }

    #[test]
    fn accepts_an_empty_event_list() {
        let summary = check_trace(r#"{"traceEvents": []}"#).expect("empty trace");
        assert_eq!(summary.events, 0);
    }

    #[test]
    fn rejects_missing_trace_events() {
        let err = check_trace(r#"{"displayTimeUnit": "ms"}"#).unwrap_err();
        assert!(err.contains("traceEvents"), "{err}");
    }

    #[test]
    fn rejects_non_object_top_level() {
        let err = check_trace("[1, 2]").unwrap_err();
        assert!(err.contains("top level"), "{err}");
    }

    #[test]
    fn rejects_span_without_duration() {
        let err = check_trace(
            r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("dur"), "{err}");
    }

    #[test]
    fn rejects_unknown_phase() {
        let err = check_trace(
            r#"{"traceEvents": [{"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("`B`"), "{err}");
    }

    #[test]
    fn rejects_missing_event_fields() {
        for missing in ["name", "ph", "ts", "pid", "tid"] {
            let mut fields = vec![
                ("name", r#""a""#),
                ("ph", r#""i""#),
                ("ts", "0"),
                ("pid", "1"),
                ("tid", "1"),
            ];
            fields.retain(|(k, _)| *k != missing);
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let doc = format!("{{\"traceEvents\": [{{{}}}]}}", body.join(", "));
            let err = check_trace(&doc).unwrap_err();
            assert!(err.contains(missing), "dropping {missing}: {err}");
        }
    }

    #[test]
    fn rejects_json_syntax_errors() {
        assert!(check_trace(r#"{"traceEvents": [}"#).is_err());
        assert!(check_trace(r#"{"traceEvents": [],}"#).is_err());
        assert!(check_trace("").is_err());
        assert!(check_trace(r#"{"traceEvents": []} extra"#).is_err());
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = parse(r#"{"s": "a\n\"b\"A", "n": -1.5e3, "t": true, "x": null}"#).expect("parse");
        let Json::Object(map) = v else { panic!() };
        assert_eq!(map["s"], Json::String("a\n\"b\"A".into()));
        assert_eq!(map["n"], Json::Number(-1500.0));
        assert_eq!(map["t"], Json::Bool(true));
        assert_eq!(map["x"], Json::Null);
    }
}
