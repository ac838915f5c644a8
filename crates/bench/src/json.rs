//! Hand-rolled JSON emission shared by the harness binaries — the offline
//! workspace carries no serde.
//!
//! # The `BENCH_*.json` report schemas
//!
//! Each harness binary (`fig12`, `fig13`, `scale`) writes one JSON
//! document per run; the repo-root `BENCH_fig12.json`, `BENCH_fig13.json`
//! and `BENCH_scale.json` are checked-in baselines of exactly these
//! shapes, and [`crate::check`] validates them (the CI `bench-smoke` job
//! gates on it). Common conventions: every document has a `"benchmark"`
//! tag and a `"cells"` array; failure-ish fields are `null` on success
//! and a human-readable message string otherwise; durations are numbers
//! (`*_secs` in seconds, `*_ms` in milliseconds).
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
//! exists); `steps` is 0 for the hand-written backend.
//!
//! ## `BENCH_scale.json` (`"benchmark": "scale"`)
//!
//! ```json
//! { "benchmark": "scale", "window_secs": 0.2, "ns": [1, 2, 4, 8, 16],
//!   "available_parallelism": 8,
//!   "wakeups_below_broadcast": true, "locks_per_value_below_seed": true,
//!   "codegen_beats_jit": true, "async_sessions_scale": true,
//!   "reconfig_churn_scale": true, "fault_recovery_bounded": true,
//!   "sessions": [
//!     { "sessions": 100000, "tasks": 200000, "threads": 4, "values": 2,
//!       "completions": 400000, "waker_wakes": 100000, "wakeups": 0,
//!       "lock_acquisitions": 900000, "steps": 200000,
//!       "open_secs": 0.81, "drain_secs": 13.7, "values_per_sec": 14564.0,
//!       "wake_precision": 0.25, "rss_per_session_kib": 4.95,
//!       "failure": null } ],
//!   "churn": [
//!     { "family": "churn", "n": 8, "mode": "part",
//!       "splices": 46, "splices_per_sec": 230.0,
//!       "values": 5012, "received": 5012, "values_per_sec": 25060.0,
//!       "window_secs": 0.2, "failure": null } ],
//!   "faults": [
//!     { "family": "faults", "kind": "drop", "mode": "jit",
//!       "iters": 40, "typed_errors": 40, "stranded": 0,
//!       "p50_us": 57.0, "p99_us": 180.0, "failure": null } ],
//!   "cells": [
//!     { "family": "burst", "n": 8, "mode": "part",
//!       "threads": 9, "steps": 10917, "steps_per_sec": 54585.0,
//!       "wakeups": 11071, "spurious_wakeups": 0, "completions": 21834,
//!       "lock_acquisitions": 76893, "broadcast_baseline_wakeups": 152838,
//!       "batch_moves": 10917, "batched_values": 13404,
//!       "locks_per_value": 14.087,
//!       "kicks": 0,
//!       "p50_us": 8.192, "p95_us": 61.44, "p99_us": 122.88,
//!       "connect_ms": 0.2, "failure": null } ] }
//! ```
//!
//! `mode` is one of [`crate::scale::SWEEP_MODES`] (`jit`, `part`,
//! `comp-part` — names from `Mode::grid()`); the counter fields mirror
//! [`reo_runtime::EngineStats`]. Two baselines are embedded:
//! `broadcast_baseline_wakeups` is the `steps × (threads − 2)` estimate
//! of what a per-engine broadcast condvar would have woken; and
//! `locks_per_value` (engine-lock acquisitions per cross-link value,
//! defined only on the `burst` family's partitioned cells where every
//! value costs exactly four completions, `null` elsewhere) is gated
//! against the unbatched-protocol seed constant
//! [`crate::scale::SEED_BURST_LOCKS_PER_VALUE`]. `batch_moves` /
//! `batched_values` are the batched link-transfer counters: engine-lock
//! holds that moved ≥ 1 value, and the values they moved (each crossing
//! counts once per side); their ratio is the measured amortization.
//! `kicks` counts only operations on regions bordering two or more links
//! (one counted inline cascade each) — regions bordering exactly one
//! link pump it uncounted and report 0. The
//! latency percentiles `p50_us`/`p95_us`/`p99_us` come from the driver's
//! per-operation histogram with four linear sub-buckets per log₂ bucket
//! ([`reo_connectors::LatencyHistogram`]): values are the *upper bound*
//! of the hit sub-bucket in microseconds (exact to within 1.25×), and
//! `null` when the cell failed or completed no operation. The header's
//! `available_parallelism` records the sweeping machine's core budget so
//! readers can tell algorithmic wins from parallel speedup; the
//! top-level booleans are the [`crate::scale::verdict`] acceptance
//! checks.
//!
//! The `sessions` array is the async fleet sweep
//! ([`crate::scale::run_sessions`]): per cell, `sessions` Fifo1
//! connectors held open concurrently, each driven by an async
//! producer/consumer pair (`tasks = 2 × sessions` futures) on a
//! `threads`-thread hand-rolled executor, moving `values` values per
//! session (fixed work, so `open_secs`/`drain_secs` are wall-clock, not
//! a window). `waker_wakes` counts `Waker` fires — the async
//! counterpart of the condvar `wakeups` — and `wake_precision` is
//! `waker_wakes / completions`, gated at
//! [`crate::scale::SESSIONS_WAKE_PRECISION_CEILING`] by the
//! `async_sessions_scale` verdict. `rss_per_session_kib` is the
//! peak-RSS-per-open-session estimate from `/proc/self/statm` deltas
//! (`null` off-Linux or when allocator reuse hides the delta).
//!
//! The `churn` array is the dynamic-reconfiguration sweep
//! ([`crate::scale::run_churn`]): per cell, a reconfigurable merger
//! starts with `n` producer branches under continuous load while the
//! driver attaches and detaches an extra branch in a loop for
//! `window_secs`. `splices` is the final session epoch (one per attach
//! or detach), `values` the producer-reported accepted sends and
//! `received` the consumer-side deliveries after a full drain — the
//! `reconfig_churn_scale` verdict requires `received == values` (no
//! loss, no duplicates) and `splices ≥ 2` on every cell.
//!
//! The `faults` array is the fault-recovery sweep
//! ([`crate::scale::run_faults`]): per cell, `iters` injections of one
//! fault `kind` (`drop`, `panic`, `poison`, `close` — see
//! [`crate::scale::FAULT_KINDS`]) against a parked receive on a Fifo1
//! connector in one mode. `typed_errors` counts injections that resolved
//! to the expected typed `RuntimeError` (Hangup / Poisoned / Closed),
//! `stranded` counts ops still parked after the 5 s bound, and
//! `p50_us`/`p99_us` are the time-to-typed-error percentiles. The
//! `fault_recovery_bounded` verdict requires every cell to resolve all
//! iterations typed, strand none, and keep `p99_us` under
//! [`crate::scale::FAULT_RECOVERY_P99_CEILING_US`].

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
