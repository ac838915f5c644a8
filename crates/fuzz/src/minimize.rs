//! Failure minimization: every finding shrinks before it is persisted.
//!
//! Two minimizers, matching the two fuzzers:
//!
//! * [`minimize_source`] — delta-debugs hostile *text* (for pipeline
//!   panics): greedy chunk removal at halving granularity, lines first,
//!   then characters.
//! * [`minimize_case`] — shrinks a structured scenario (for differential
//!   findings): drop whole steps, then drop ops inside batches, then
//!   shrink replication widths. Each candidate is re-run through the
//!   caller's predicate; a shrink that no longer reproduces is rejected,
//!   so script-validity bookkeeping (e.g. a `Detach` whose `Attach` was
//!   removed) needs no special casing — invalid shrinks simply fail to
//!   reproduce.
//!
//! Both are bounded: the predicate is invoked at most a few hundred
//! times, so minimizing never dominates a fuzzing run.

use crate::gen::GenCase;
use crate::scenario::{Scenario, Step};

/// Greedy ddmin over `items`: try removing chunks at granularity
/// `len/2, len/4, …, 1`, keeping any removal that still reproduces.
fn ddmin<T: Clone>(mut items: Vec<T>, mut reproduces: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut chunk = items.len().div_ceil(2).max(1);
    let mut budget = 400usize;
    loop {
        let mut shrunk = false;
        let mut start = 0;
        while start < items.len() && budget > 0 {
            let end = (start + chunk).min(items.len());
            let mut candidate = items.clone();
            candidate.drain(start..end);
            budget -= 1;
            if !candidate.is_empty() && reproduces(&candidate) {
                items = candidate;
                shrunk = true;
                // Re-test the same offset: the next chunk slid into it.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !shrunk {
            return items;
        }
        if !shrunk {
            chunk = (chunk / 2).max(1);
        }
        if budget == 0 {
            return items;
        }
    }
}

/// Minimize hostile source text, preserving `reproduces`.
pub fn minimize_source(src: &str, mut reproduces: impl FnMut(&str) -> bool) -> String {
    let join_lines = |ls: &[String]| ls.join("\n");
    let lines: Vec<String> = src.lines().map(str::to_string).collect();
    let lines = ddmin(lines, |ls| reproduces(&join_lines(ls)));
    let join_chars = |cs: &[char]| cs.iter().collect::<String>();
    let chars: Vec<char> = join_lines(&lines).chars().collect();
    let chars = ddmin(chars, |cs| reproduces(&join_chars(cs)));
    join_chars(&chars)
}

/// Minimize a differential-finding scenario, preserving `reproduces`.
pub fn minimize_case(case: &GenCase, mut reproduces: impl FnMut(&GenCase) -> bool) -> GenCase {
    let mut best = case.clone();

    let with_steps = |base: &GenCase, steps: Vec<Step>| {
        let mut c = base.clone();
        c.scenario = Scenario {
            steps,
            ..c.scenario.clone()
        };
        // A shrunk script delivers a different multiset; the predicate
        // must judge divergence, not the stale expectation.
        c.expected = None;
        c
    };

    // Pass 1: whole steps.
    let steps = ddmin(best.scenario.steps.clone(), |steps| {
        reproduces(&with_steps(&best, steps.to_vec()))
    });
    best = with_steps(&best, steps);

    // Pass 2: ops inside each batch (front to back; index arithmetic
    // stays simple because batches are independent).
    for i in 0..best.scenario.steps.len() {
        let Step::Batch { ops, quorum } = best.scenario.steps[i].clone() else {
            continue;
        };
        let shrunk_ops = ddmin(ops, |ops| {
            let mut steps = best.scenario.steps.clone();
            steps[i] = Step::Batch {
                ops: ops.to_vec(),
                quorum,
            };
            reproduces(&with_steps(&best, steps))
        });
        let mut steps = best.scenario.steps.clone();
        steps[i] = Step::Batch {
            ops: shrunk_ops,
            quorum,
        };
        best = with_steps(&best, steps);
    }

    // Pass 3: replication widths (down to 1, one param at a time).
    for i in 0..best.scenario.replicate.len() {
        while best.scenario.replicate[i].1 > 1 {
            let mut c = best.clone();
            c.scenario.replicate[i].1 -= 1;
            c.expected = None;
            if reproduces(&c) {
                best = c;
            } else {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn source_minimization_keeps_the_needle() {
        let src = "aaaa\nbbbb\nNEEDLE in a haystack\ncccc\ndddd";
        let min = minimize_source(src, |s| s.contains("NEEDLE"));
        assert_eq!(min, "NEEDLE");
    }

    #[test]
    fn case_minimization_drops_irrelevant_steps() {
        // Reproduce = "script still has at least 3 send ops": minimization
        // must trim everything else.
        let case = (0..32)
            .map(|i| generate(13, i))
            .find(|c| {
                c.scenario
                    .steps
                    .iter()
                    .filter_map(|s| match s {
                        Step::Batch { ops, .. } => Some(ops.len()),
                        _ => None,
                    })
                    .sum::<usize>()
                    > 6
            })
            .expect("a case with > 6 ops within 32 draws");
        let sends = |c: &GenCase| {
            c.scenario
                .steps
                .iter()
                .filter_map(|s| match s {
                    Step::Batch { ops, .. } => Some(
                        ops.iter()
                            .filter(|o| matches!(o, crate::scenario::Op::Send { .. }))
                            .count(),
                    ),
                    _ => None,
                })
                .sum::<usize>()
        };
        let min = minimize_case(&case, |c| sends(c) >= 3);
        assert_eq!(sends(&min), 3);
        let total_ops: usize = min
            .scenario
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Batch { ops, .. } => Some(ops.len()),
                _ => None,
            })
            .sum();
        assert_eq!(total_ops, 3, "receives and extra steps must be gone");
    }
}
