//! Hand-rolled JSON emission shared by the harness binaries — the offline
//! workspace carries no serde.
//!
//! # The `BENCH_*.json` report schemas
//!
//! Each harness binary (`fig12`, `fig13`) writes one JSON document per
//! run; the repo-root `BENCH_fig12.json` and `BENCH_fig13.json` are
//! checked-in baselines of exactly these shapes, and [`crate::check`]
//! validates them (the CI `bench-smoke` job gates on it). Common
//! conventions: every document has a `"benchmark"` tag and a `"cells"`
//! array; failure-ish fields are `null` on success and a human-readable
//! message string otherwise; durations are numbers (`*_secs` in seconds,
//! `*_ms` in milliseconds).
//!
//! ## `BENCH_fig12.json` (`"benchmark": "fig12_connectors"`)
//!
//! ```json
//! { "benchmark": "fig12_connectors", "window_secs": 0.1, "ns": [2, 4, 8],
//!   "cells": [
//!     { "family": "merger", "n": 2, "bin": "NEW-WINS",
//!       "existing":    {"steps": 100, "connect_ms": 0.1, "failure": null},
//!       "new":         {"steps": 200, "connect_ms": 0.1, "failure": null},
//!       "partitioned": null } ] }
//! ```
//!
//! `bin` is the Fig. 12 legend class (`NEW-ONLY`, `NEW-WINS`,
//! `EXIST<=10x`, `EXIST<=100x`, `BOTH-FAIL`); `partitioned` is `null`
//! unless the run passed `--partitioned`, otherwise an outcome object
//! like `existing`/`new`.
//!
//! ## `BENCH_fig13.json` (`"benchmark": "fig13_npb"`)
//!
//! ```json
//! { "benchmark": "fig13_npb", "timeout_secs": 120, "large_n": false,
//!   "cells": [
//!     { "prog": "cg", "class": "S", "n": 2, "backend": "reo-jit",
//!       "secs": 0.044, "dnf": null, "steps": 2848, "verified": true } ] }
//! ```
//!
//! `backend` is `original`, `reo-jit` or `reo-part`. `secs` is `null` iff
//! `dnf` is non-null (a timeout, or `connector failure: <typed cause>`);
//! `verified` is the CG zeta check (`null` where no official value
//! exists) or, for LU, agreement with the class's sequential reference
//! (`null` only in a DNF cell); `steps` is 0 for the hand-written backend.

use std::fmt::Write as _;

/// Escape a string for a JSON string literal (Debug formatting is close
/// but emits Rust-only `\u{..}` escapes for control characters).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `Some(x)` → JSON string, `None` → `null`.
pub fn json_opt_str(s: &Option<String>) -> String {
    match s {
        Some(s) => json_str(s),
        None => "null".to_string(),
    }
}

/// Resolve the value of a bare-or-valued `--json` flag: the parser stores
/// the sentinel `"true"` for a bare flag; anything else is an explicit
/// output path.
pub fn json_path<'a>(value: &'a str, default: &'a str) -> &'a str {
    if value == "true" {
        default
    } else {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_controls_quotes_and_backslashes() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn bare_flag_resolves_to_default_path() {
        assert_eq!(json_path("true", "OUT.json"), "OUT.json");
        assert_eq!(json_path("custom.json", "OUT.json"), "custom.json");
    }
}
