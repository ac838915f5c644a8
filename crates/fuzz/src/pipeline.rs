//! Front-end pipeline fuzzing: lexer → parser → elaborator → lowering.
//!
//! The differential harness ([`crate::diff`]) only sees sources the
//! generator knows are well-formed. This module hunts the *other* bug
//! class: panics (and unbounded recursion) anywhere in the compilation
//! pipeline when fed hostile text — mutated well-formed sources, token
//! soup, and corpus reproducers. Every stage is run under
//! `catch_unwind`; a caught panic is a [`PipeFinding`] carrying the stage
//! and the offending source, which the caller minimizes and persists.
//!
//! Typed errors are the *expected* outcome for garbage input and are
//! never findings — the whole point of the adversarial-limits work is
//! that the pipeline refuses, not explodes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use reo_dsl::parse_program;
use reo_runtime::{Connector, Mode};

use crate::rng::Rng;

/// Where in the pipeline a panic escaped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipeStage {
    Parse,
    /// `Connector::builder(..).build()` — elaboration, composition,
    /// lowering, under the named mode.
    Build,
    /// `session().connect()` — instantiation and engine start.
    Connect,
}

impl std::fmt::Display for PipeStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PipeStage::Parse => "parse",
            PipeStage::Build => "build",
            PipeStage::Connect => "connect",
        })
    }
}

/// A panic that escaped the pipeline for some source text.
#[derive(Clone, Debug)]
pub struct PipeFinding {
    pub stage: PipeStage,
    /// Mode name for build/connect findings (the pipeline is mode-split
    /// past parsing), empty for parse findings.
    pub mode: &'static str,
    pub message: String,
}

impl std::fmt::Display for PipeFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panic in {} {}: {}", self.stage, self.mode, self.message)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Push one source through parse → build → connect under every mode of
/// [`Mode::grid`] — the partitioned ones are the only `connect` that cuts
/// links. Returns the first escaped panic, `None` when the pipeline
/// either succeeded or refused with typed errors everywhere.
pub fn check_source(src: &str) -> Option<PipeFinding> {
    let parsed = catch_unwind(AssertUnwindSafe(|| parse_program(src)));
    let program = match parsed {
        Err(payload) => {
            return Some(PipeFinding {
                stage: PipeStage::Parse,
                mode: "",
                message: panic_message(payload),
            })
        }
        Ok(Err(_)) => return None, // typed refusal: the desired outcome
        Ok(Ok(p)) => p,
    };
    // Every definition is an entry-point candidate; small programs only
    // have a few.
    for def in &program.defs {
        for &(mode_name, mode) in Mode::grid() {
            let built = catch_unwind(AssertUnwindSafe(|| {
                Connector::builder(&program, &def.name).mode(mode).build()
            }));
            let connector = match built {
                Err(payload) => {
                    return Some(PipeFinding {
                        stage: PipeStage::Build,
                        mode: mode_name,
                        message: panic_message(payload),
                    })
                }
                Ok(Err(_)) => continue,
                Ok(Ok(c)) => c,
            };
            let connected = catch_unwind(AssertUnwindSafe(|| {
                let mut spec = connector.session();
                for p in def.tails.iter().chain(&def.heads) {
                    if p.is_array {
                        spec = spec.replicate(&p.name, 2);
                    }
                }
                if let Ok(session) = spec.connect() {
                    session.handle().close(); // Err = typed refusal
                }
            }));
            if let Err(payload) = connected {
                return Some(PipeFinding {
                    stage: PipeStage::Connect,
                    mode: mode_name,
                    message: panic_message(payload),
                });
            }
        }
    }
    None
}

/// The DSL's token inventory, for soup and splice mutations.
const TOKENS: &[&str] = &[
    "prod",
    "if",
    "else",
    "mult",
    "among",
    "forall",
    "and",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
    "[",
    "]",
    "..",
    "#",
    "==",
    "!=",
    "<",
    "<=",
    "=",
    "+",
    "-",
    "*",
    "P",
    "Q",
    "a",
    "b",
    "i",
    "j",
    "0",
    "1",
    "2",
    "9223372036854775807",
    "-9223372036854775808",
    "Sync",
    "Fifo1",
    "FifoN",
    "Merger",
    "Replicator",
    "Router",
    "Fifo1Full",
    "LossySync",
    "Seq2",
    "Repl2",
    "X",
    "main",
    "Tasks.pro",
];

/// A source of hostile text: mutated seeds and raw token soup.
pub fn hostile_source(rng: &mut Rng, seeds: &[String]) -> String {
    if seeds.is_empty() || rng.chance(1, 4) {
        // Token soup: syntactically plausible fragments in random order.
        let n = rng.range(1, 60);
        let mut out = String::new();
        for _ in 0..n {
            out.push_str(rng.pick(TOKENS) as &str);
            if rng.chance(3, 4) {
                out.push(' ');
            }
        }
        return out;
    }
    let mut chars: Vec<char> = rng.pick(seeds).chars().collect();
    for _ in 0..rng.range(1, 4) {
        if chars.is_empty() {
            break;
        }
        match rng.below(5) {
            // Delete a span.
            0 => {
                let at = rng.below(chars.len());
                let len = rng.range(1, 8).min(chars.len() - at);
                chars.drain(at..at + len);
            }
            // Duplicate a span (grows nesting, repeats operators).
            1 => {
                let at = rng.below(chars.len());
                let len = rng.range(1, 8).min(chars.len() - at);
                let span: Vec<char> = chars[at..at + len].to_vec();
                for (k, c) in span.into_iter().enumerate() {
                    chars.insert(at + k, c);
                }
            }
            // Replace one character with a structural one.
            2 => {
                let at = rng.below(chars.len());
                chars[at] = *rng.pick(&['(', ')', '{', '}', '[', ']', ';', '#', '.', '-']);
            }
            // Splice a whole token.
            3 => {
                let at = rng.below(chars.len() + 1);
                for (k, c) in rng.pick(TOKENS).chars().enumerate() {
                    chars.insert(at + k, c);
                }
            }
            // Truncate.
            _ => {
                let at = rng.below(chars.len());
                chars.truncate(at);
            }
        }
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn well_formed_sources_pass_the_pipeline() {
        for i in 0..6 {
            let case = generate(5, i);
            assert!(
                check_source(&case.scenario.source).is_none(),
                "shape {}",
                case.shape
            );
        }
    }

    #[test]
    fn hostile_sources_never_panic_across_a_small_budget() {
        let seeds: Vec<String> = (0..8).map(|i| generate(5, i).scenario.source).collect();
        let mut rng = Rng::new(2024);
        // A quick in-tree smoke; the real budget runs in the fuzz binary.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut finding = None;
        for _ in 0..200 {
            let src = hostile_source(&mut rng, &seeds);
            if let Some(f) = check_source(&src) {
                finding = Some((f, src));
                break;
            }
        }
        std::panic::set_hook(prev);
        if let Some((f, src)) = finding {
            panic!("{f}\nsource: {src}");
        }
    }
}
