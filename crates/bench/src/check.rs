//! Schema validation and regression gating for the `BENCH_*.json`
//! reports — the engine of the `bench_check` binary and the CI
//! `bench-smoke` job.
//!
//! The offline workspace carries no serde, so this module brings its own
//! minimal JSON reader ([`Json::parse`]): just enough of RFC 8259 for the
//! documents the harness binaries emit (and strict about those).
//!
//! Three checks are offered:
//!
//! * [`validate`] — structural schema validation per benchmark kind
//!   (`fig12_connectors`, `fig13_npb`): required top-level
//!   fields, required per-cell fields, right JSON types.
//! * [`failure_regressions`] — the CI gate: for every cell key that has a
//!   `null` failure in the checked-in *baseline*, the freshly produced
//!   report must not show a non-null failure. Compared on the
//!   intersection of cell keys, so a short CI sweep over fewer `ns` never
//!   trips on missing cells. The **relaxed** variant
//!   ([`failure_regressions_gated`]) additionally exempts the
//!   timing-sensitive cells ([`is_timing_sensitive`]: the fig13 class-S
//!   cells, whose DNF verdicts flap on noisy CI runners) — those still
//!   get schema validation, but their regressions only surface through
//!   the tracking artifact.
//! * [`metric_deltas`] — the tracking artifact: per-cell primary-metric
//!   deltas (fig12: steps, fig13: seconds) between a
//!   fresh report and the baseline, as human-readable lines. CI uploads
//!   this instead of gating on it, so throughput noise never blocks a
//!   merge but stays reviewable.

use std::collections::HashMap;
use std::fmt;

/// A parsed JSON value (objects keep insertion order; duplicate keys are
/// a parse error).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parse failure with a byte offset for error messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own emitter's
                            // output; map them to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (input is a &str, so
                    // continuation bytes are well-formed).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("source was a valid &str"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

/// Which report schema to check a document against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fig12,
    Fig13,
}

impl Kind {
    pub fn by_name(name: &str) -> Option<Kind> {
        match name {
            "fig12" | "fig12_connectors" => Some(Kind::Fig12),
            "fig13" | "fig13_npb" => Some(Kind::Fig13),
            _ => None,
        }
    }

    fn benchmark_tag(self) -> &'static str {
        match self {
            Kind::Fig12 => "fig12_connectors",
            Kind::Fig13 => "fig13_npb",
        }
    }
}

fn require<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing field `{key}`"))
}

fn require_num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    require(obj, key, ctx)?
        .as_num()
        .ok_or_else(|| format!("{ctx}: field `{key}` is not a number"))
}

fn require_str<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    require(obj, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: field `{key}` is not a string"))
}

/// A `failure`-ish field: must be `null` or a string. Returns whether it
/// is a (non-null) failure.
fn check_failure(obj: &Json, key: &str, ctx: &str) -> Result<bool, String> {
    match require(obj, key, ctx)? {
        Json::Null => Ok(false),
        Json::Str(_) => Ok(true),
        _ => Err(format!("{ctx}: field `{key}` is neither null nor a string")),
    }
}

fn check_outcome(obj: &Json, ctx: &str) -> Result<(), String> {
    require_num(obj, "steps", ctx)?;
    require_num(obj, "connect_ms", ctx)?;
    check_failure(obj, "failure", ctx)?;
    Ok(())
}

/// Validate a report document against its schema. Returns the number of
/// cells on success.
pub fn validate(doc: &Json, kind: Kind) -> Result<usize, String> {
    let tag = require_str(doc, "benchmark", "document")?;
    if tag != kind.benchmark_tag() {
        return Err(format!(
            "document: benchmark tag `{tag}` does not match expected `{}`",
            kind.benchmark_tag()
        ));
    }
    let cells = require(doc, "cells", "document")?
        .as_arr()
        .ok_or("document: `cells` is not an array")?;
    if cells.is_empty() {
        return Err("document: `cells` is empty".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("cell {i}");
        match kind {
            Kind::Fig12 => {
                require_str(cell, "family", &ctx)?;
                require_num(cell, "n", &ctx)?;
                require_str(cell, "bin", &ctx)?;
                check_outcome(require(cell, "existing", &ctx)?, &format!("{ctx}.existing"))?;
                check_outcome(require(cell, "new", &ctx)?, &format!("{ctx}.new"))?;
                let partitioned = require(cell, "partitioned", &ctx)?;
                if !partitioned.is_null() {
                    check_outcome(partitioned, &format!("{ctx}.partitioned"))?;
                }
                // Optional series (absent from pre-lowering baselines).
                if let Some(compiled) = cell.get("compiled") {
                    if !compiled.is_null() {
                        check_outcome(compiled, &format!("{ctx}.compiled"))?;
                    }
                }
            }
            Kind::Fig13 => {
                require_str(cell, "prog", &ctx)?;
                require_str(cell, "class", &ctx)?;
                require_num(cell, "n", &ctx)?;
                require_str(cell, "backend", &ctx)?;
                check_failure(cell, "dnf", &ctx)?;
                require_num(cell, "steps", &ctx)?;
                let secs = require(cell, "secs", &ctx)?;
                if !secs.is_null() && secs.as_num().is_none() {
                    return Err(format!("{ctx}: `secs` is neither null nor a number"));
                }
            }
        }
    }
    Ok(cells.len())
}

/// Map every failure-carrying series of a report to `cell key → failed?`.
/// Keys are human-readable so they double as regression messages.
fn failure_map(doc: &Json, kind: Kind) -> Result<HashMap<String, bool>, String> {
    let mut out = HashMap::new();
    let cells = require(doc, "cells", "document")?
        .as_arr()
        .ok_or("document: `cells` is not an array")?;
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("cell {i}");
        match kind {
            Kind::Fig12 => {
                let family = require_str(cell, "family", &ctx)?;
                let n = require_num(cell, "n", &ctx)?;
                for series in ["existing", "new", "partitioned", "compiled"] {
                    // `compiled` is optional: absent from pre-lowering
                    // baselines, so look it up rather than require it.
                    let Some(o) = cell.get(series) else { continue };
                    if o.is_null() {
                        continue;
                    }
                    let failed = check_failure(o, "failure", &ctx)?;
                    out.insert(format!("{family}/n={n}/{series}"), failed);
                }
            }
            Kind::Fig13 => {
                let key = format!(
                    "{}/{}/n={}/{}",
                    require_str(cell, "prog", &ctx)?,
                    require_str(cell, "class", &ctx)?,
                    require_num(cell, "n", &ctx)?,
                    require_str(cell, "backend", &ctx)?
                );
                out.insert(key, check_failure(cell, "dnf", &ctx)?);
            }
        }
    }
    Ok(out)
}

/// The CI gate: every cell that succeeded (`failure: null` / `dnf: null`)
/// in `baseline` and exists in `new` must still succeed there. Returns
/// the offending cell keys (empty = gate passes). Cells only present in
/// one of the two documents are ignored, so a short smoke sweep can gate
/// against a full checked-in baseline.
pub fn failure_regressions(new: &Json, baseline: &Json, kind: Kind) -> Result<Vec<String>, String> {
    failure_regressions_gated(new, baseline, kind, false)
}

/// Whether a cell key names a timing-sensitive cell: the fig13 class-S
/// runs finish in milliseconds, so their timeout/DNF verdicts flap on
/// noisy CI runners. The relaxed gate exempts exactly these.
pub fn is_timing_sensitive(kind: Kind, key: &str) -> bool {
    kind == Kind::Fig13 && key.split('/').nth(1) == Some("S")
}

/// [`failure_regressions`] with an optional relaxed policy: when
/// `relaxed`, timing-sensitive cells ([`is_timing_sensitive`]) are
/// exempted from gating — their deltas belong in the tracking artifact
/// ([`metric_deltas`]), not in a merge-blocking check.
pub fn failure_regressions_gated(
    new: &Json,
    baseline: &Json,
    kind: Kind,
    relaxed: bool,
) -> Result<Vec<String>, String> {
    let new_map = failure_map(new, kind)?;
    let base_map = failure_map(baseline, kind)?;
    let mut regressions: Vec<String> = base_map
        .iter()
        .filter(|(key, &base_failed)| {
            !base_failed && new_map.get(key.as_str()).copied() == Some(true)
        })
        .filter(|(key, _)| !(relaxed && is_timing_sensitive(kind, key)))
        .map(|(key, _)| key.clone())
        .collect();
    regressions.sort();
    Ok(regressions)
}

/// Map every cell of a report to its primary metric: fig12 `steps` per
/// series, fig13 `secs` (skipping DNF cells).
fn metric_map(doc: &Json, kind: Kind) -> Result<HashMap<String, f64>, String> {
    let mut out = HashMap::new();
    let cells = require(doc, "cells", "document")?
        .as_arr()
        .ok_or("document: `cells` is not an array")?;
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("cell {i}");
        match kind {
            Kind::Fig12 => {
                let family = require_str(cell, "family", &ctx)?;
                let n = require_num(cell, "n", &ctx)?;
                for series in ["existing", "new", "partitioned", "compiled"] {
                    // `compiled` is optional (see [`failure_map`]).
                    let Some(o) = cell.get(series) else { continue };
                    if o.is_null() {
                        continue;
                    }
                    out.insert(
                        format!("{family}/n={n}/{series}"),
                        require_num(o, "steps", &ctx)?,
                    );
                }
            }
            Kind::Fig13 => {
                let key = format!(
                    "{}/{}/n={}/{}",
                    require_str(cell, "prog", &ctx)?,
                    require_str(cell, "class", &ctx)?,
                    require_num(cell, "n", &ctx)?,
                    require_str(cell, "backend", &ctx)?
                );
                if let Some(secs) = require(cell, "secs", &ctx)?.as_num() {
                    out.insert(key, secs);
                }
            }
        }
    }
    Ok(out)
}

/// The tracking artifact: one human-readable line per cell key of the
/// fresh report, `key: baseline -> new (+x.x%)` where the baseline has
/// the key, `key: (new) -> value` where it does not (a freshly added
/// series or section — e.g. the `compiled` column — must surface in the
/// artifact, not vanish into the intersection). Keys only the *baseline*
/// has are still skipped: short CI sweeps legitimately cover fewer cells
/// than the checked-in full run. Timing deltas go here instead of into
/// the gate, so runner noise never blocks a merge but stays reviewable
/// in the uploaded artifact.
pub fn metric_deltas(new: &Json, baseline: &Json, kind: Kind) -> Result<Vec<String>, String> {
    let new_map = metric_map(new, kind)?;
    let base_map = metric_map(baseline, kind)?;
    let mut keys: Vec<&String> = new_map.keys().collect();
    keys.sort();
    Ok(keys
        .into_iter()
        .map(|k| {
            let fresh = new_map[k];
            match base_map.get(k) {
                Some(&base) => {
                    let pct = if base.abs() > f64::EPSILON {
                        (fresh - base) / base * 100.0
                    } else {
                        0.0
                    };
                    format!("{k}: {base:.3} -> {fresh:.3} ({pct:+.1}%)")
                }
                None => format!("{k}: (new) -> {fresh:.3}"),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_emitters_own_output() {
        let doc =
            Json::parse(r#"{ "a": [1, -2.5, 1e3], "s": "x\n\"y\\", "t": true, "nul": null }"#)
                .unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x\n\"y\\"));
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
        assert!(doc.get("nul").unwrap().is_null());
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".to_string()));
    }

    #[test]
    fn rejects_garbage_duplicates_and_truncation() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
    }

    fn fig12_doc(failure: &str) -> String {
        format!(
            r#"{{"benchmark":"fig12_connectors","window_secs":0.1,"ns":[2],"cells":[
              {{"family":"merger","n":2,"bin":"NEW-WINS",
                "existing":{{"steps":10,"connect_ms":0.1,"failure":{failure}}},
                "new":{{"steps":20,"connect_ms":0.1,"failure":null}},
                "partitioned":null}}]}}"#
        )
    }

    #[test]
    fn validates_fig12_schema_and_flags_wrong_tag() {
        let doc = Json::parse(&fig12_doc("null")).unwrap();
        assert_eq!(validate(&doc, Kind::Fig12), Ok(1));
        assert!(validate(&doc, Kind::Fig13).is_err());
        // A missing per-cell field is caught.
        let broken =
            Json::parse(r#"{"benchmark":"fig12_connectors","cells":[{"family":"x","n":2}]}"#)
                .unwrap();
        assert!(validate(&broken, Kind::Fig12).unwrap_err().contains("bin"));
    }

    #[test]
    fn regression_gate_fires_only_on_ok_to_fail_transitions() {
        let baseline = Json::parse(&fig12_doc("null")).unwrap();
        let ok = Json::parse(&fig12_doc("null")).unwrap();
        let bad = Json::parse(&fig12_doc(r#""boom""#)).unwrap();
        assert_eq!(
            failure_regressions(&ok, &baseline, Kind::Fig12).unwrap(),
            Vec::<String>::new()
        );
        assert_eq!(
            failure_regressions(&bad, &baseline, Kind::Fig12).unwrap(),
            vec!["merger/n=2/existing".to_string()]
        );
        // A cell that already failed in the baseline may keep failing.
        let base_fail = Json::parse(&fig12_doc(r#""boom""#)).unwrap();
        assert_eq!(
            failure_regressions(&bad, &base_fail, Kind::Fig12).unwrap(),
            Vec::<String>::new()
        );
    }

    fn fig13_doc(class: &str, dnf: &str, secs: &str) -> String {
        format!(
            r#"{{"benchmark":"fig13_npb","timeout_secs":60,"large_n":false,"cells":[
              {{"prog":"cg","class":"{class}","n":2,"backend":"reo-jit",
                "secs":{secs},"dnf":{dnf},"steps":100,"verified":true}}]}}"#
        )
    }

    #[test]
    fn relaxed_gate_exempts_only_fig13_class_s() {
        let base = Json::parse(&fig13_doc("S", "null", "0.05")).unwrap();
        let bad = Json::parse(&fig13_doc("S", r#""timeout""#, "null")).unwrap();
        // Strict: the class-S ok→fail transition is a regression.
        assert_eq!(
            failure_regressions_gated(&bad, &base, Kind::Fig13, false).unwrap(),
            vec!["cg/S/n=2/reo-jit".to_string()]
        );
        // Relaxed: the timing-sensitive cell is exempt.
        assert_eq!(
            failure_regressions_gated(&bad, &base, Kind::Fig13, true).unwrap(),
            Vec::<String>::new()
        );
        // A non-S class stays gated even relaxed.
        let base_a = Json::parse(&fig13_doc("A", "null", "1.5")).unwrap();
        let bad_a = Json::parse(&fig13_doc("A", r#""timeout""#, "null")).unwrap();
        assert_eq!(
            failure_regressions_gated(&bad_a, &base_a, Kind::Fig13, true).unwrap(),
            vec!["cg/A/n=2/reo-jit".to_string()]
        );
        assert!(is_timing_sensitive(Kind::Fig13, "cg/S/n=2/reo-jit"));
        assert!(!is_timing_sensitive(Kind::Fig13, "cg/A/n=2/reo-jit"));
        assert!(!is_timing_sensitive(Kind::Fig12, "merger/n=2/new"));
    }

    #[test]
    fn metric_deltas_report_both_directions_on_the_key_intersection() {
        let base = Json::parse(&fig13_doc("S", "null", "0.050")).unwrap();
        let fresh = Json::parse(&fig13_doc("S", "null", "0.075")).unwrap();
        let lines = metric_deltas(&fresh, &base, Kind::Fig13).unwrap();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("cg/S/n=2/reo-jit: 0.050 -> 0.075 (+50.0%)"),
            "{lines:?}"
        );
        // A DNF cell drops out of the metric map → empty intersection.
        let dnf = Json::parse(&fig13_doc("S", r#""timeout""#, "null")).unwrap();
        assert!(metric_deltas(&dnf, &base, Kind::Fig13).unwrap().is_empty());
    }

    #[test]
    fn metric_deltas_surface_new_only_cells() {
        // A series present only in the fresh report (the `compiled`
        // column against a pre-lowering baseline) must emit a `(new)`
        // line instead of silently dropping out of the intersection;
        // baseline-only cells (short CI sweeps) must stay skipped.
        let cell = |n: u32, new_steps: u32, compiled: &str| {
            format!(
                r#"{{"family":"merger","n":{n},"bin":"NEW-WINS",
                  "existing":{{"steps":10,"connect_ms":0.1,"failure":null}},
                  "new":{{"steps":{new_steps},"connect_ms":0.1,"failure":null}},
                  "partitioned":null{compiled}}}"#
            )
        };
        let doc = |cells: &[String]| {
            let text = format!(
                r#"{{"benchmark":"fig12_connectors","cells":[{}]}}"#,
                cells.join(",")
            );
            Json::parse(&text).unwrap()
        };
        let base = doc(&[cell(2, 100, ""), cell(16, 90, "")]);
        let compiled = r#","compiled":{"steps":400,"connect_ms":0.1,"failure":null}"#;
        let fresh = doc(&[cell(2, 110, compiled)]);
        let lines = metric_deltas(&fresh, &base, Kind::Fig12).unwrap();
        assert_eq!(
            lines,
            vec![
                "merger/n=2/compiled: (new) -> 400.000".to_string(),
                "merger/n=2/existing: 10.000 -> 10.000 (+0.0%)".to_string(),
                "merger/n=2/new: 100.000 -> 110.000 (+10.0%)".to_string(),
            ]
        );
    }

    #[test]
    fn checked_in_baselines_validate() {
        // The repo-root BENCH_*.json files must stay schema-valid; this is
        // the same check the CI bench-smoke job runs on fresh output.
        for (file, kind) in [
            ("BENCH_fig12.json", Kind::Fig12),
            ("BENCH_fig13.json", Kind::Fig13),
        ] {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            let cells = validate(&doc, kind).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(cells > 0);
        }
    }
}
