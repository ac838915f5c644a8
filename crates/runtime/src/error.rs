//! Runtime errors.

use std::fmt;

/// Why a port operation or connector construction failed.
///
/// The enum is `#[non_exhaustive]`: new failure modes (such as the
/// reconfiguration variants added with the dynamic-attach API) may appear
/// in minor releases, so downstream matches need a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The connector was shut down while the operation was pending.
    Closed,
    /// Ahead-of-time composition exceeded its state/transition budget —
    /// the "existing approach fails" outcome of Fig. 12, and the compiled
    /// modes' rows outgrowing it at `connect`.
    Explosion(reo_automata::Explosion),
    /// Just-in-time expansion of a single state exceeded the transition
    /// budget. Expansion keeps only *connected* steps (`crate::jit`), so
    /// independent constituents no longer get here — the paper's Fig. 13
    /// finding 3 does not reproduce on them; what still does is fan-out
    /// inside one synchronous component (a replicator feeding `k`
    /// `LossySync`s has `2^k` steps in one state).
    ExpansionOverflow {
        state_transitions: usize,
        budget: usize,
    },
    /// Compilation/instantiation failed.
    Core(reo_core::CoreError),
    /// Lowering refused a step: it needs more registers than a `u16`
    /// register index addresses, or a constant/function/predicate pool
    /// outgrew its `u16` index space. A step is lowered when it is first
    /// tried, in every mode — the eager ones fill their rows at `connect`
    /// but lower as lazily as `Mode::jit()` — so this never comes from
    /// `connect`: the firing that tried the step fails, and the engine
    /// poisons itself with this error's text.
    Lower(reo_automata::LowerError),
    /// A port operation was issued on a port that already has one pending
    /// (ports are single-owner, one operation at a time).
    PortBusy(reo_automata::PortId),
    /// The transition's dataflow could not be resolved (malformed connector).
    Unresolved(reo_automata::fire::UnresolvedPort),
    /// A previous firing failed; the engine refuses further operations.
    Poisoned(String),
    /// A session accessor named a parameter the connector does not have
    /// (or asked for the wrong direction, e.g. outports of an inport).
    UnknownParam { name: String },
    /// The named parameter's ports were already taken from this session —
    /// ports are single-owner.
    AlreadyTaken { name: String },
    /// A scalar accessor (`Session::outport`/`inport`) named an array
    /// parameter with more than one port.
    NotScalar { name: String, len: usize },
    /// A `send_timeout`/`recv_timeout` deadline expired; the operation was
    /// retracted and the port is free again.
    Timeout,
    /// A typed `recv` got a value of the wrong shape. The value is returned
    /// so nothing is lost; the port is reusable.
    TypeMismatch {
        expected: &'static str,
        found: reo_automata::Value,
    },
    /// The operation named a port that no engine of the session serves:
    /// no constituent wires it, or a reconfiguration detached its branch.
    Detached(reo_automata::PortId),
    /// Another attach/detach is currently splicing this session; retry
    /// after it finishes. Reconfigurations are serialized per session.
    ReconfigInFlight,
    /// A reconfiguration splice could not be carried out — e.g. a branch
    /// slated for removal was not quiescent, or the new partition would
    /// merge or split live regions (unsupported). The session is left
    /// exactly as it was.
    Reconfig(String),
    /// The session was not created with
    /// `SessionSpec::reconfigurable`, or the parameter is not replicated,
    /// so it cannot attach or detach branches at runtime.
    NotReconfigurable,
    /// A peer the operation needed to synchronize with hung up: its port
    /// was dropped (phaser-style deregistration), every transition that
    /// could still serve this port transitively requires the departed
    /// port, and no buffered value can ever release it. The operation can
    /// never complete, so it resolves with this error instead of blocking
    /// forever. The id is the *departed* port.
    Hangup(reo_automata::PortId),
    /// A watchdog-armed session made no progress past its deadline while
    /// operations were parked, as judged when the expiring operation
    /// asked; the report is a wait-for snapshot (parked ports, per-region
    /// status, link queue depths) from the observation that judged it.
    /// Only produced by sessions built with `SessionSpec::watchdog`, and
    /// only on paths that would otherwise report [`RuntimeError::Timeout`].
    Stalled(Box<crate::watchdog::StallReport>),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Closed => write!(f, "connector closed"),
            RuntimeError::Explosion(e) => write!(f, "ahead-of-time composition failed: {e}"),
            RuntimeError::ExpansionOverflow {
                state_transitions,
                budget,
            } => write!(
                f,
                "just-in-time expansion overflow: a single state has more than {budget} \
                 connected global transitions ({state_transitions} built); the fan-out \
                 lies within one synchronous component, which partitioned execution \
                 (Mode::partitioned()) splits only where a queue cuts it"
            ),
            RuntimeError::Core(e) => write!(f, "{e}"),
            RuntimeError::Lower(e) => write!(f, "{e}"),
            RuntimeError::PortBusy(p) => {
                write!(f, "port {p} already has a pending operation")
            }
            RuntimeError::Unresolved(e) => write!(f, "{e}"),
            RuntimeError::Poisoned(msg) => write!(f, "engine poisoned: {msg}"),
            RuntimeError::UnknownParam { name } => {
                write!(f, "connector has no parameter `{name}` in this direction")
            }
            RuntimeError::AlreadyTaken { name } => {
                write!(f, "ports of parameter `{name}` were already taken")
            }
            RuntimeError::NotScalar { name, len } => {
                write!(
                    f,
                    "parameter `{name}` has {len} ports; use the array accessor"
                )
            }
            RuntimeError::Timeout => write!(f, "operation timed out (cleanly retracted)"),
            RuntimeError::TypeMismatch { expected, found } => {
                write!(f, "typed receive expected {expected}, got {found}")
            }
            RuntimeError::Detached(p) => write!(
                f,
                "port {p} is not served by this session: never wired, or detached by a reconfiguration"
            ),
            RuntimeError::ReconfigInFlight => {
                write!(f, "another reconfiguration is in flight; retry")
            }
            RuntimeError::Reconfig(msg) => write!(f, "reconfiguration failed: {msg}"),
            RuntimeError::NotReconfigurable => write!(
                f,
                "session was not connected with SessionSpec::reconfigurable"
            ),
            RuntimeError::Hangup(p) => {
                write!(f, "peer port {p} hung up; the operation can never complete")
            }
            RuntimeError::Stalled(report) => {
                write!(f, "session stalled: {report}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<reo_core::CoreError> for RuntimeError {
    fn from(e: reo_core::CoreError) -> Self {
        RuntimeError::Core(e)
    }
}

impl From<reo_automata::LowerError> for RuntimeError {
    fn from(e: reo_automata::LowerError) -> Self {
        RuntimeError::Lower(e)
    }
}

impl From<reo_automata::Explosion> for RuntimeError {
    fn from(e: reo_automata::Explosion) -> Self {
        RuntimeError::Explosion(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_remedy() {
        let e = RuntimeError::ExpansionOverflow {
            state_transitions: 9999,
            budget: 1000,
        };
        assert!(e.to_string().contains("Mode::partitioned()"));
        assert!(RuntimeError::Closed.to_string().contains("closed"));
    }
}
