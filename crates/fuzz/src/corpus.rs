//! The corpus: every failure the fuzzer ever found, as a checked-in file.
//!
//! A corpus case is a small, human-readable text file (`*.case`) under
//! `tests/corpus/`. Three kinds exist, matching the three fuzzers:
//!
//! * `kind: diff` — a full differential scenario (script + replication +
//!   agreement) that must agree across the entire mode grid.
//! * `kind: fault` — a scenario that injects a failure on purpose
//!   (dropped port, scripted panic/poison, close race) and must degrade
//!   gracefully under every mode: typed errors within the deadline, no
//!   hangs, no escaped panics.
//! * `kind: pipeline` — hostile source text that must traverse
//!   parse/build/connect without a panic.
//!
//! The discipline: a finding is minimized, serialized with [`to_text`],
//! committed, and replayed forever by `tests/corpus_replay.rs` — the
//! corpus only grows, and a regression of any past failure is a plain
//! test failure with the case path in the message.
//!
//! Format (header lines, then the DSL source after a `source:` marker):
//!
//! ```text
//! # reo-fuzz corpus case
//! kind: diff
//! shape: fan-in
//! provenance: seed=42 index=7
//! entry: M
//! driver: threads
//! agreement: multiset
//! replicate: src=2
//! reconfigurable: false
//! timeout-ms: 5000
//! expect: 1 2
//! step: batch | send src 0 1 | send src 1 2
//! step: batch | recv c 0 | recv c 0
//! source:
//! M(src[];c) = ...
//! ```
//!
//! Branch ports (from reconfiguration) are written `@N`: `send @0 7`,
//! `recv @0`; `step: attach src` and `step: detach 0` script the churn.
//! Fault steps: `step: dropport a 0` (or `dropport @N`), `step: panic 2`
//! (panic injected into the 2nd-next firing), `step: poison`,
//! `step: close 5` (close from a background thread after 5 ms).

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::diff::{diff_case, fault_case};
use crate::gen::{Agreement, GenCase};
use crate::pipeline::check_source;
use crate::scenario::{Driver, Op, PortRef, Scenario, Step};

/// One parsed corpus file.
#[derive(Clone, Debug)]
pub enum CorpusCase {
    /// Replay across the mode grid; any finding is a regression.
    Diff(GenCase),
    /// Replay across the mode grid with the graceful-degradation checks
    /// of [`fault_case`]; a hang or escaped panic is a regression.
    Fault(GenCase),
    /// Push through the compilation pipeline; any panic is a regression.
    Pipeline { source: String },
}

fn port_to_text(p: &PortRef) -> String {
    match p {
        PortRef::Param { name, index } => format!("{name} {index}"),
        PortRef::Branch { index } => format!("@{index}"),
    }
}

fn step_to_text(step: &Step) -> String {
    match step {
        Step::Batch { ops, quorum } => {
            let mut s = String::from("step: batch");
            if let Some(q) = quorum {
                s.push_str(&format!(" quorum={q}"));
            }
            for op in ops {
                match op {
                    Op::Send { port, value } => {
                        s.push_str(&format!(" | send {} {value}", port_to_text(port)))
                    }
                    Op::Recv { port } => s.push_str(&format!(" | recv {}", port_to_text(port))),
                }
            }
            s
        }
        Step::Attach { param } => format!("step: attach {param}"),
        Step::Detach { branch } => format!("step: detach {branch}"),
        Step::DropPort { port } => format!("step: dropport {}", port_to_text(port)),
        Step::InjectPanic { after } => format!("step: panic {after}"),
        Step::Poison => "step: poison".to_string(),
        Step::Close { delay_ms } => format!("step: close {delay_ms}"),
    }
}

/// Serialize a case. `provenance` is free-text context (seed, finding)
/// preserved for humans; replay ignores it.
pub fn to_text(case: &CorpusCase, provenance: &str) -> String {
    let mut out = String::from("# reo-fuzz corpus case\n");
    match case {
        CorpusCase::Pipeline { source } => {
            out.push_str("kind: pipeline\n");
            if !provenance.is_empty() {
                out.push_str(&format!("provenance: {provenance}\n"));
            }
            out.push_str("source:\n");
            out.push_str(source);
        }
        CorpusCase::Diff(gen) | CorpusCase::Fault(gen) => {
            let kind = match case {
                CorpusCase::Fault(_) => "fault",
                _ => "diff",
            };
            out.push_str(&format!("kind: {kind}\n"));
            out.push_str(&format!("shape: {}\n", gen.shape));
            if !provenance.is_empty() {
                out.push_str(&format!("provenance: {provenance}\n"));
            }
            out.push_str(&format!("entry: {}\n", gen.scenario.entry));
            out.push_str(&format!(
                "driver: {}\n",
                match gen.driver {
                    Driver::Threads => "threads",
                    Driver::Polled => "polled",
                }
            ));
            out.push_str(&format!(
                "agreement: {}\n",
                match gen.agreement {
                    Agreement::Exact => "exact",
                    Agreement::Multiset => "multiset",
                }
            ));
            if !gen.scenario.replicate.is_empty() {
                let widths: Vec<String> = gen
                    .scenario
                    .replicate
                    .iter()
                    .map(|(n, k)| format!("{n}={k}"))
                    .collect();
                out.push_str(&format!("replicate: {}\n", widths.join(" ")));
            }
            out.push_str(&format!(
                "reconfigurable: {}\n",
                gen.scenario.reconfigurable
            ));
            out.push_str(&format!(
                "timeout-ms: {}\n",
                gen.scenario.timeout.as_millis()
            ));
            if let Some(expected) = &gen.expected {
                let vs: Vec<String> = expected.iter().map(|v| v.to_string()).collect();
                out.push_str(&format!("expect: {}\n", vs.join(" ")));
            }
            for step in &gen.scenario.steps {
                out.push_str(&step_to_text(step));
                out.push('\n');
            }
            out.push_str("source:\n");
            out.push_str(&gen.scenario.source);
        }
    }
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

fn parse_port(words: &mut std::slice::Iter<'_, &str>) -> Result<PortRef, String> {
    let first = words.next().ok_or("missing port")?;
    if let Some(ix) = first.strip_prefix('@') {
        let index = ix.parse().map_err(|_| format!("bad branch index `{ix}`"))?;
        return Ok(PortRef::Branch { index });
    }
    let index = words
        .next()
        .ok_or_else(|| format!("port `{first}` missing index"))?
        .parse()
        .map_err(|_| format!("bad port index after `{first}`"))?;
    Ok(PortRef::Param {
        name: first.to_string(),
        index,
    })
}

fn parse_step(rest: &str) -> Result<Step, String> {
    let mut fields = rest.split('|').map(str::trim);
    let head = fields.next().ok_or("empty step")?;
    let head_words: Vec<&str> = head.split_whitespace().collect();
    match head_words.first().copied() {
        Some("attach") => Ok(Step::Attach {
            param: head_words
                .get(1)
                .ok_or("attach needs a parameter name")?
                .to_string(),
        }),
        Some("detach") => Ok(Step::Detach {
            branch: head_words
                .get(1)
                .ok_or("detach needs a branch index")?
                .parse()
                .map_err(|_| "bad detach index".to_string())?,
        }),
        Some("dropport") => {
            let mut it = head_words[1..].iter();
            Ok(Step::DropPort {
                port: parse_port(&mut it)?,
            })
        }
        Some("panic") => Ok(Step::InjectPanic {
            after: head_words
                .get(1)
                .ok_or("panic needs a step count")?
                .parse()
                .map_err(|_| "bad panic step count".to_string())?,
        }),
        Some("poison") => Ok(Step::Poison),
        Some("close") => Ok(Step::Close {
            delay_ms: head_words
                .get(1)
                .ok_or("close needs a delay in ms")?
                .parse()
                .map_err(|_| "bad close delay".to_string())?,
        }),
        Some("batch") => {
            let mut quorum = None;
            for w in &head_words[1..] {
                let q = w
                    .strip_prefix("quorum=")
                    .ok_or_else(|| format!("unknown batch attribute `{w}`"))?;
                quorum = Some(q.parse().map_err(|_| format!("bad quorum `{q}`"))?);
            }
            let mut ops = Vec::new();
            for field in fields {
                let words: Vec<&str> = field.split_whitespace().collect();
                let mut it = words[1..].iter();
                match words.first().copied() {
                    Some("send") => {
                        let port = parse_port(&mut it)?;
                        let value = it
                            .next()
                            .ok_or("send missing value")?
                            .parse()
                            .map_err(|_| "bad send value".to_string())?;
                        ops.push(Op::Send { port, value });
                    }
                    Some("recv") => ops.push(Op::Recv {
                        port: parse_port(&mut it)?,
                    }),
                    other => return Err(format!("unknown op `{other:?}`")),
                }
            }
            Ok(Step::Batch { ops, quorum })
        }
        other => Err(format!("unknown step `{other:?}`")),
    }
}

/// Parse a corpus file.
pub fn from_text(text: &str) -> Result<CorpusCase, String> {
    let mut kind = None;
    let mut shape = String::from("corpus");
    let mut entry = String::new();
    let mut driver = Driver::Threads;
    let mut agreement = Agreement::Exact;
    let mut replicate = Vec::new();
    let mut reconfigurable = false;
    let mut timeout = Duration::from_secs(5);
    let mut expected = None;
    let mut steps = Vec::new();
    let mut lines = text.lines();
    let mut source = None;
    for line in lines.by_ref() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "source:" {
            source = Some(String::new());
            break;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("not a `key: value` line: `{line}`"))?;
        let value = value.trim();
        match key.trim() {
            "kind" => kind = Some(value.to_string()),
            "shape" => shape = value.to_string(),
            "provenance" => {}
            "entry" => entry = value.to_string(),
            "driver" => {
                driver = match value {
                    "threads" => Driver::Threads,
                    "polled" => Driver::Polled,
                    other => return Err(format!("unknown driver `{other}`")),
                }
            }
            "agreement" => {
                agreement = match value {
                    "exact" => Agreement::Exact,
                    "multiset" => Agreement::Multiset,
                    other => return Err(format!("unknown agreement `{other}`")),
                }
            }
            "replicate" => {
                for pair in value.split_whitespace() {
                    let (name, k) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("bad replicate `{pair}`"))?;
                    let k = k.parse().map_err(|_| format!("bad width `{k}`"))?;
                    replicate.push((name.to_string(), k));
                }
            }
            "reconfigurable" => {
                reconfigurable = value
                    .parse()
                    .map_err(|_| format!("bad reconfigurable `{value}`"))?
            }
            "timeout-ms" => {
                timeout = Duration::from_millis(
                    value
                        .parse()
                        .map_err(|_| format!("bad timeout `{value}`"))?,
                )
            }
            "expect" => {
                let vs: Result<Vec<i64>, _> = value.split_whitespace().map(str::parse).collect();
                expected = Some(vs.map_err(|_| format!("bad expect `{value}`"))?);
            }
            "step" => steps.push(parse_step(value)?),
            other => return Err(format!("unknown key `{other}`")),
        }
    }
    let mut src = source.ok_or("missing `source:` section")?;
    for line in lines {
        src.push_str(line);
        src.push('\n');
    }
    let src = src.trim_end().to_string();
    match kind.as_deref() {
        Some("pipeline") => Ok(CorpusCase::Pipeline { source: src }),
        Some(k @ ("diff" | "fault")) => {
            if entry.is_empty() {
                return Err(format!("{k} case missing `entry`"));
            }
            let mut scenario = Scenario::new(src, entry);
            scenario.replicate = replicate;
            scenario.reconfigurable = reconfigurable;
            scenario.steps = steps;
            scenario.timeout = timeout;
            let gen = GenCase {
                scenario,
                agreement,
                driver,
                expected,
                shape: known_shape(&shape),
            };
            Ok(if k == "fault" {
                CorpusCase::Fault(gen)
            } else {
                CorpusCase::Diff(gen)
            })
        }
        other => Err(format!("unknown kind `{other:?}`")),
    }
}

/// Map a shape string back to the generator's static names (corpus files
/// round-trip through them); unknown shapes collapse to `"corpus"`.
fn known_shape(s: &str) -> &'static str {
    for known in [
        "pipeline",
        "relay-grid",
        "fan-out",
        "fan-in",
        "router",
        "sequencer",
        "churn-merger",
        "fault-drop",
        "fault-panic",
        "fault-poison",
        "fault-close",
        "corpus",
    ] {
        if s == known {
            return known;
        }
    }
    "corpus"
}

/// Load every `*.case` file under `dir`, sorted by file name. An empty
/// or missing directory is an empty corpus, not an error.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusCase)>, String> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Err(_) => return Ok(Vec::new()),
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect(),
    };
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let case = from_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, case));
    }
    Ok(out)
}

/// Replay one corpus case; `Err` is a regression of a past finding.
pub fn replay(case: &CorpusCase) -> Result<(), String> {
    match case {
        CorpusCase::Pipeline { source } => match check_source(source) {
            None => Ok(()),
            Some(f) => Err(f.to_string()),
        },
        CorpusCase::Diff(case) => match diff_case(case) {
            Ok(_) => Ok(()),
            Err(f) => Err(f.to_string()),
        },
        CorpusCase::Fault(case) => match fault_case(case) {
            Ok(_) => Ok(()),
            Err(f) => Err(f.to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn generated_cases_round_trip_through_the_text_format() {
        for i in 0..40 {
            let case = generate(21, i);
            let text = to_text(&CorpusCase::Diff(case.clone()), "seed=21");
            let parsed = match from_text(&text).unwrap() {
                CorpusCase::Diff(c) => c,
                other => panic!("wrong kind: {other:?}"),
            };
            // The format normalizes trailing whitespace; nothing else.
            assert_eq!(parsed.scenario.source, case.scenario.source.trim_end());
            assert_eq!(parsed.scenario.entry, case.scenario.entry);
            assert_eq!(parsed.scenario.replicate, case.scenario.replicate);
            assert_eq!(parsed.scenario.reconfigurable, case.scenario.reconfigurable);
            assert_eq!(parsed.scenario.steps, case.scenario.steps);
            assert_eq!(parsed.scenario.timeout, case.scenario.timeout);
            assert_eq!(parsed.agreement, case.agreement);
            assert_eq!(parsed.driver, case.driver);
            assert_eq!(parsed.expected, case.expected);
            assert_eq!(parsed.shape, case.shape);
        }
    }

    #[test]
    fn fault_cases_round_trip_through_the_text_format() {
        for i in 0..40 {
            let case = crate::gen::generate_fault(33, i);
            let text = to_text(&CorpusCase::Fault(case.clone()), "seed=33");
            let parsed = match from_text(&text).unwrap() {
                CorpusCase::Fault(c) => c,
                other => panic!("wrong kind: {other:?}"),
            };
            assert_eq!(parsed.scenario.source, case.scenario.source.trim_end());
            assert_eq!(parsed.scenario.steps, case.scenario.steps);
            assert_eq!(parsed.driver, case.driver);
            assert_eq!(parsed.shape, case.shape);
        }
    }

    #[test]
    fn pipeline_cases_round_trip() {
        let case = CorpusCase::Pipeline {
            source: "P(a;b) = Sync(a;b)".into(),
        };
        let text = to_text(&case, "");
        match from_text(&text).unwrap() {
            CorpusCase::Pipeline { source } => assert_eq!(source, "P(a;b) = Sync(a;b)"),
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
