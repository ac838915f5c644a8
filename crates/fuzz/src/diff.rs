//! The differential harness: one scenario, the whole [`Mode::grid`].
//!
//! Every generated case runs under each mode of the grid with the
//! case's driver; the resulting [`Observation`]s are normalized according
//! to the case's [`Agreement`] and compared pairwise against the first
//! mode's. Any discrepancy — a diverging trace, a value delivered zero or
//! two times, a timeout, a mode that errors while another succeeds — is a
//! [`Finding`] the caller minimizes and persists to the corpus.
//!
//! Modes are allowed to *refuse uniformly*: if every mode reports the
//! same error the scenario is counted as [`CaseOutcome::Refused`], not a
//! finding. A mode may also individually refuse with the typed "cannot
//! lower" error (a step outgrew the `u16` register or pool encoding) —
//! that is a documented capability boundary, not a bug, and is skipped per
//! mode. Steps are lowered when first tried, so that refusal arrives
//! mid-run, as the poison of the firing that tried one.

use reo_runtime::Mode;

use crate::gen::{Agreement, GenCase};
use crate::scenario::{run_scenario, Observation, OpResult};

/// What the differential check concluded about one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Every mode agreed (modulo the case's legitimate freedom).
    Agreed,
    /// Every mode refused identically (e.g. a generated connector a
    /// budget rejects) — consistent, so not a finding.
    Refused,
}

/// One confirmed disagreement, attributable to a single mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Display name of the disagreeing mode.
    pub mode: &'static str,
    pub kind: FindingKind,
    /// Human-readable evidence (both sides of the diff).
    pub detail: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// An op hit the scenario deadline under this mode: a hang.
    Hang,
    /// Normalized observations differ from the baseline mode's.
    TraceDivergence,
    /// Received + residual values don't equal the sent multiset.
    ExactlyOnceViolation,
    /// This mode failed to run a scenario other modes ran.
    ErrorDisagreement,
    /// A panic escaped the runtime's containment into the harness — the
    /// fault-injection check's "zero aborts" assertion failed.
    PanicEscape,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            FindingKind::Hang => "hang",
            FindingKind::TraceDivergence => "trace divergence",
            FindingKind::ExactlyOnceViolation => "exactly-once violation",
            FindingKind::ErrorDisagreement => "error disagreement",
            FindingKind::PanicEscape => "panic escape",
        };
        write!(f, "[{}] {}: {}", self.mode, kind, self.detail)
    }
}

/// A mode-legitimate individual refusal: lowering may reject steps the
/// u16 encoding cannot hold, and eager composition strategies may hit the state-space budget on
/// connectors the lazy modes handle fine. Budget messages embed the
/// mode's own composition tree, so two modes refusing for the same
/// reason do not produce byte-identical errors — they are matched by
/// category, not text.
fn is_capability_refusal(msg: &str) -> bool {
    msg.contains("cannot lower automaton") || msg.contains("state-space explosion")
}

/// A run that a capability refusal cut short: some op resolved with the
/// engine's poison, and the poison is the lowering refusal.
fn refused_mid_run(obs: &Observation) -> bool {
    let mut ops = obs.results.iter().flatten();
    ops.any(|r| matches!(r, OpResult::Error(msg) if is_capability_refusal(msg)))
}

/// An [`Observation`] reduced to the comparison the agreement allows.
#[derive(Debug, PartialEq, Eq)]
struct Normalized {
    /// One rendered result list per step, sorted within a step under
    /// [`Agreement::Multiset`]. Under `Multiset` received *values* are
    /// replaced by a placeholder — merge arrival order is scheduling
    /// freedom across the whole run, not just within one batch (a
    /// merger may serve serialized receives in any leg order) — and
    /// compared as the pooled [`Normalized::received`] multiset.
    steps: Vec<Vec<String>>,
    /// All received values, sorted; only populated under `Multiset`
    /// (under `Exact` the values stay in `steps`, in order).
    received: Vec<i64>,
    /// Residual buffered values; per-port under `Exact`, pooled and
    /// sorted under `Multiset` (a value may legitimately be parked
    /// behind a different merge leg).
    residual: Vec<String>,
    epoch: u64,
}

fn normalize(obs: &Observation, agreement: Agreement) -> Normalized {
    let mut received = Vec::new();
    let steps = obs
        .results
        .iter()
        .map(|batch| {
            let mut rendered: Vec<String> = batch
                .iter()
                .map(|r| match r {
                    OpResult::Received(v) if agreement == Agreement::Multiset => {
                        received.push(*v);
                        "Received".to_string()
                    }
                    other => format!("{other:?}"),
                })
                .collect();
            if agreement == Agreement::Multiset {
                rendered.sort_unstable();
            }
            rendered
        })
        .collect();
    received.sort_unstable();
    let residual = match agreement {
        Agreement::Exact => obs
            .residual
            .iter()
            .map(|(label, vs)| format!("{label}={vs:?}"))
            .collect(),
        Agreement::Multiset => {
            let mut pooled: Vec<i64> = obs
                .residual
                .iter()
                .flat_map(|(_, vs)| vs)
                .copied()
                .collect();
            pooled.sort_unstable();
            pooled.iter().map(|v| v.to_string()).collect()
        }
    };
    Normalized {
        steps,
        received,
        residual,
        epoch: obs.epoch,
    }
}

/// Every value the run actually delivered (receives + drained residue),
/// as a sorted multiset for the exactly-once comparison.
fn delivered(obs: &Observation) -> Vec<i64> {
    let mut vs: Vec<i64> = obs
        .results
        .iter()
        .flatten()
        .filter_map(|r| match r {
            OpResult::Received(v) => Some(*v),
            _ => None,
        })
        .collect();
    vs.extend(obs.residual.iter().flat_map(|(_, drained)| drained));
    vs.sort_unstable();
    vs
}

fn has_timeout(obs: &Observation) -> bool {
    obs.results
        .iter()
        .flatten()
        .any(|r| matches!(r, OpResult::TimedOut))
}

/// Run `case` under every mode and compare. `Ok` means no finding.
pub fn diff_case(case: &GenCase) -> Result<CaseOutcome, Finding> {
    let mut baseline: Option<(&'static str, Normalized)> = None;
    let mut first_error: Option<(&'static str, String)> = None;
    let mut ran = 0usize;
    for &(name, mode) in Mode::grid() {
        match run_scenario(&case.scenario, mode, case.driver) {
            Err(e) => {
                let msg = e.to_string();
                if is_capability_refusal(&msg) {
                    continue; // documented per-mode capability boundary
                }
                match &first_error {
                    None if ran == 0 => first_error = Some((name, msg)),
                    None => {
                        return Err(Finding {
                            mode: name,
                            kind: FindingKind::ErrorDisagreement,
                            detail: format!("failed with `{msg}` where earlier modes ran"),
                        });
                    }
                    Some((_, prior)) if *prior == msg => {}
                    Some((prior_mode, prior)) => {
                        return Err(Finding {
                            mode: name,
                            kind: FindingKind::ErrorDisagreement,
                            detail: format!("`{msg}` vs [{prior_mode}] `{prior}`"),
                        });
                    }
                }
            }
            Ok(obs) if refused_mid_run(&obs) => continue, // the same boundary
            Ok(obs) => {
                if let Some((err_mode, err)) = &first_error {
                    return Err(Finding {
                        mode: err_mode,
                        kind: FindingKind::ErrorDisagreement,
                        detail: format!("failed with `{err}` where [{name}] ran"),
                    });
                }
                ran += 1;
                if has_timeout(&obs) {
                    return Err(Finding {
                        mode: name,
                        kind: FindingKind::Hang,
                        detail: format!("op past the {:?} deadline", case.scenario.timeout),
                    });
                }
                if let Some(expected) = &case.expected {
                    let got = delivered(&obs);
                    if &got != expected {
                        return Err(Finding {
                            mode: name,
                            kind: FindingKind::ExactlyOnceViolation,
                            detail: format!("delivered {got:?}, sent {expected:?}"),
                        });
                    }
                }
                let norm = normalize(&obs, case.agreement);
                match &baseline {
                    None => baseline = Some((name, norm)),
                    Some((base_name, base)) => {
                        if *base != norm {
                            return Err(Finding {
                                mode: name,
                                kind: FindingKind::TraceDivergence,
                                detail: format!("{norm:?} vs [{base_name}] {base:?}"),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(if ran > 0 {
        CaseOutcome::Agreed
    } else {
        CaseOutcome::Refused
    })
}

/// Run a *fault* case under every mode and check graceful degradation.
///
/// Fault scenarios script a failure on purpose — a dropped port, a panic
/// injected into a firing, a direct poison, a close racing live ops — so
/// trace agreement and exactly-once are **not** required: the fault's
/// timing relative to the script differs legitimately per mode. What
/// every mode must guarantee instead:
///
/// - **no hangs** — every op resolves (value, retraction, or *typed*
///   error) before the scenario deadline; a `TimedOut` is a finding;
/// - **no aborts** — the injected panic never escapes the runtime's
///   containment into the harness;
/// - **uniform refusal** — a mode that cannot run the scenario at all
///   must refuse exactly like the others (capability refusals aside).
pub fn fault_case(case: &GenCase) -> Result<CaseOutcome, Finding> {
    let mut first_error: Option<(&'static str, String)> = None;
    let mut ran = 0usize;
    for &(name, mode) in Mode::grid() {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_scenario(&case.scenario, mode, case.driver)
        }));
        let outcome = match run {
            Ok(outcome) => outcome,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                return Err(Finding {
                    mode: name,
                    kind: FindingKind::PanicEscape,
                    detail: format!("panic escaped containment: `{msg}`"),
                });
            }
        };
        match outcome {
            Err(e) => {
                let msg = e.to_string();
                if is_capability_refusal(&msg) {
                    continue;
                }
                match &first_error {
                    None if ran == 0 => first_error = Some((name, msg)),
                    None => {
                        return Err(Finding {
                            mode: name,
                            kind: FindingKind::ErrorDisagreement,
                            detail: format!("failed with `{msg}` where earlier modes ran"),
                        });
                    }
                    Some((_, prior)) if *prior == msg => {}
                    Some((prior_mode, prior)) => {
                        return Err(Finding {
                            mode: name,
                            kind: FindingKind::ErrorDisagreement,
                            detail: format!("`{msg}` vs [{prior_mode}] `{prior}`"),
                        });
                    }
                }
            }
            Ok(obs) => {
                if let Some((err_mode, err)) = &first_error {
                    return Err(Finding {
                        mode: err_mode,
                        kind: FindingKind::ErrorDisagreement,
                        detail: format!("failed with `{err}` where [{name}] ran"),
                    });
                }
                ran += 1;
                if has_timeout(&obs) {
                    return Err(Finding {
                        mode: name,
                        kind: FindingKind::Hang,
                        detail: format!(
                            "op past the {:?} deadline under an injected fault",
                            case.scenario.timeout
                        ),
                    });
                }
            }
        }
    }
    Ok(if ran > 0 {
        CaseOutcome::Agreed
    } else {
        CaseOutcome::Refused
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn a_generated_pipeline_agrees_across_the_grid() {
        // Index chosen so the 0|1 arms (pipeline shape) are hit.
        let case = (0..16)
            .map(|i| generate(11, i))
            .find(|c| c.shape == "pipeline")
            .expect("pipeline shape within 16 draws");
        assert_eq!(diff_case(&case), Ok(CaseOutcome::Agreed));
    }

    #[test]
    fn a_lowering_refusal_is_the_same_boundary_at_connect_and_mid_run() {
        use reo_automata::LowerError;
        use reo_runtime::RuntimeError;
        let refusal = RuntimeError::Lower(LowerError::RegisterOverflow {
            automaton: "wide".into(),
        });
        assert!(is_capability_refusal(&refusal.to_string()));
        // What a task sees once the firing that tried the step poisoned
        // the engine with it.
        let poisoned = RuntimeError::Poisoned(refusal.to_string());
        let cut_short = Observation {
            results: vec![
                vec![OpResult::Sent],
                vec![OpResult::Error(poisoned.to_string())],
            ],
            residual: Vec::new(),
            epoch: 0,
        };
        assert!(refused_mid_run(&cut_short));
        let closed = Observation {
            results: vec![vec![OpResult::Error(RuntimeError::Closed.to_string())]],
            ..cut_short
        };
        assert!(!refused_mid_run(&closed));
    }
}
