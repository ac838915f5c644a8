//! Structured scenario generation.
//!
//! Each generated case is a [`Scenario`] drawn from one of
//! the connector *shapes* below — random compositions of the paper's
//! primitives whose driving script is constructed together with the
//! connector, so every send is guaranteed absorbable (the generator
//! tracks buffering capacity) and every receive is guaranteed
//! satisfiable. That is what makes the cases *differential*: a timeout
//! under any mode is a finding, not a flaky script.
//!
//! Shapes and their agreement disciplines:
//!
//! | shape        | connector                                   | agreement |
//! |--------------|---------------------------------------------|-----------|
//! | pipeline     | chain of Sync/Fifo1/FifoN/Fifo1Full         | exact     |
//! | relay grid   | `prod` of per-channel chains                | exact     |
//! | fan-out      | Replicator into per-leg Fifo1s              | exact     |
//! | fan-in       | per-channel Fifo1s into Merger              | multiset  |
//! | router       | Router with quorum receives                 | multiset  |
//! | sequencer    | the paper's Fig. 9 ordered-merge connector  | exact     |
//! | churn merger | fan-in + runtime attach/detach (reconfig)   | multiset  |
//!
//! `Exact` scenarios must produce byte-identical observations in every
//! mode; `Multiset` scenarios may legitimately reorder merge arrivals,
//! so observations are compared after sorting receive values (see
//! [`crate::diff`]).

use std::time::Duration;

use crate::rng::Rng;
use crate::scenario::{Driver, Op, PortRef, Scenario, Step};

/// How strictly two observations of this scenario must agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agreement {
    /// Fully deterministic: observations must be identical.
    Exact,
    /// Merge order is scheduling freedom: compare receive values as
    /// per-step sorted multisets.
    Multiset,
}

/// A generated scenario plus its comparison discipline and delivery
/// expectation.
#[derive(Clone, Debug)]
pub struct GenCase {
    pub scenario: Scenario,
    pub agreement: Agreement,
    pub driver: Driver,
    /// Sorted multiset of every value that must appear exactly once
    /// across receives + residual (exactly-once delivery); `None` when
    /// the shape has no such invariant.
    pub expected: Option<Vec<i64>>,
    /// The shape name, for reporting.
    pub shape: &'static str,
}

fn param(name: &str, index: usize) -> PortRef {
    PortRef::Param {
        name: name.to_string(),
        index,
    }
}

fn send(name: &str, index: usize, value: i64) -> Op {
    Op::Send {
        port: param(name, index),
        value,
    }
}

fn recv(name: &str, index: usize) -> Op {
    Op::Recv {
        port: param(name, index),
    }
}

fn batch(ops: Vec<Op>) -> Step {
    Step::Batch { ops, quorum: None }
}

/// One pipeline stage and the buffering capacity it contributes.
#[derive(Clone, Copy)]
enum Stage {
    Sync,
    Fifo1,
    FifoN(usize),
    /// Initially-full fifo1 holding `token`: contributes one value that
    /// drains ahead of everything sent.
    Fifo1Full(i64),
}

impl Stage {
    fn dsl(&self, a: &str, b: &str) -> String {
        match self {
            Stage::Sync => format!("Sync({a};{b})"),
            Stage::Fifo1 => format!("Fifo1({a};{b})"),
            Stage::FifoN(c) => format!("FifoN<{c}>({a};{b})"),
            Stage::Fifo1Full(v) => format!("Fifo1Full<{v}>({a};{b})"),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Stage::Sync => 0,
            Stage::Fifo1 => 1,
            Stage::FifoN(c) => *c,
            Stage::Fifo1Full(_) => 0, // full: no free slot until drained
        }
    }
}

fn random_stage(rng: &mut Rng, next_token: &mut i64) -> Stage {
    match rng.below(6) {
        0 | 1 => Stage::Fifo1,
        2 => Stage::FifoN(rng.range(2, 4)),
        3 => Stage::Sync,
        4 => {
            let t = *next_token;
            *next_token += 1;
            Stage::Fifo1Full(t)
        }
        _ => Stage::Fifo1,
    }
}

/// Chain `stages` between `a` and `b` as `mult`-composed DSL.
fn chain(stages: &[Stage], a: &str, b: &str, mid_prefix: &str) -> String {
    let mut parts = Vec::with_capacity(stages.len());
    for (k, s) in stages.iter().enumerate() {
        let from = if k == 0 {
            a.to_string()
        } else {
            format!("{mid_prefix}{k}")
        };
        let to = if k + 1 == stages.len() {
            b.to_string()
        } else {
            format!("{mid_prefix}{}", k + 1)
        };
        parts.push(s.dsl(&from, &to));
    }
    parts.join(" mult ")
}

/// A single channel: stages chained `a -> b`, driven with an
/// occupancy-tracking interleaving of sends and receives.
fn gen_pipeline(rng: &mut Rng) -> GenCase {
    let mut token = 1000;
    let n_stages = rng.range(1, 5);
    let stages: Vec<Stage> = (0..n_stages)
        .map(|_| random_stage(rng, &mut token))
        .collect();
    let source = format!("P(a;b) = {}", chain(&stages, "a", "b", "m"));
    let capacity: usize = stages.iter().map(Stage::capacity).sum();
    let tokens: Vec<i64> = stages
        .iter()
        .filter_map(|s| match s {
            Stage::Fifo1Full(v) => Some(*v),
            _ => None,
        })
        .collect();

    let mut scenario = Scenario::new(source, "P");
    let k = rng.range(2, 8);
    let mut expected: Vec<i64> = (1..=k as i64).collect();
    expected.extend(&tokens);

    // The initially-full cells must drain before anything moves through
    // them, so receive them first.
    for _ in 0..tokens.len() {
        scenario.steps.push(batch(vec![recv("b", 0)]));
    }
    if capacity == 0 {
        // Pure relay: every value needs sender and receiver in one batch.
        for v in 1..=k as i64 {
            scenario
                .steps
                .push(batch(vec![send("a", 0, v), recv("b", 0)]));
        }
    } else {
        let mut in_flight = 0usize;
        let mut next_send = 1i64;
        let mut to_recv = k;
        while next_send <= k as i64 || to_recv > 0 {
            let can_send = next_send <= k as i64 && in_flight < capacity;
            let can_recv = in_flight > 0;
            if can_send && (!can_recv || rng.chance(1, 2)) {
                scenario.steps.push(batch(vec![send("a", 0, next_send)]));
                next_send += 1;
                in_flight += 1;
            } else if can_recv {
                scenario.steps.push(batch(vec![recv("b", 0)]));
                in_flight -= 1;
                to_recv -= 1;
            } else {
                // No buffered value and nothing left to send mid-script
                // cannot happen: to_recv > 0 implies values in flight or
                // unsent, and unsent implies can_send (in_flight 0).
                unreachable!("generator bookkeeping violated");
            }
        }
    }
    expected.sort_unstable();
    GenCase {
        scenario,
        agreement: Agreement::Exact,
        driver: if rng.chance(1, 2) {
            Driver::Threads
        } else {
            Driver::Polled
        },
        expected: Some(expected),
        shape: "pipeline",
    }
}

/// `prod (i:1..#a) <chain>(a[i];b[i])`: independent replicated channels,
/// all sharing one stage chain.
fn gen_relay_grid(rng: &mut Rng) -> GenCase {
    let mut token = 0; // no Fifo1Full in the grid: per-channel tokens
                       // would need per-channel sources
    let n_stages = rng.range(1, 3);
    let stages: Vec<Stage> = (0..n_stages)
        .map(|_| loop {
            let s = random_stage(rng, &mut token);
            if !matches!(s, Stage::Fifo1Full(_)) {
                break s;
            }
        })
        .collect();
    let capacity: usize = stages.iter().map(Stage::capacity).sum();
    let channels = rng.range(2, 3);
    let body = chain(&stages, "a[i]", "b[i]", "m");
    // Mid-port names must be arrays indexed by i to stay channel-private,
    // and a multi-stage body must be braced: `prod` binds a single term.
    let body = body.replace("m1", "m1[i]").replace("m2", "m2[i]");
    let source = format!("P(a[];b[]) = prod (i:1..#a) {{ {body} }}");

    let mut scenario = Scenario::new(source, "P");
    scenario.replicate = vec![("a".into(), channels), ("b".into(), channels)];
    let k = rng.range(1, 4); // values per channel
    let mut value = 1i64;
    let mut expected = Vec::new();
    for _round in 0..k {
        if capacity == 0 {
            for ch in 0..channels {
                scenario
                    .steps
                    .push(batch(vec![send("a", ch, value), recv("b", ch)]));
                expected.push(value);
                value += 1;
            }
        } else {
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for ch in 0..channels {
                sends.push(send("a", ch, value));
                recvs.push(recv("b", ch));
                expected.push(value);
                value += 1;
            }
            scenario.steps.push(batch(sends));
            scenario.steps.push(batch(recvs));
        }
    }
    expected.sort_unstable();
    GenCase {
        scenario,
        agreement: Agreement::Exact,
        driver: if rng.chance(1, 2) {
            Driver::Threads
        } else {
            Driver::Polled
        },
        expected: Some(expected),
        shape: "relay-grid",
    }
}

/// Replicator into per-leg Fifo1s: every sent value arrives once per leg.
fn gen_fan_out(rng: &mut Rng) -> GenCase {
    let legs = rng.range(2, 4);
    let source =
        "P(a;b[]) = Replicator(a;c[1..#b]) mult prod (i:1..#b) Fifo1(c[i];b[i])".to_string();
    let mut scenario = Scenario::new(source, "P");
    scenario.replicate = vec![("b".into(), legs)];
    let k = rng.range(1, 4);
    let mut expected = Vec::new();
    for v in 1..=k as i64 {
        scenario.steps.push(batch(vec![send("a", 0, v)]));
        let recvs: Vec<Op> = (0..legs).map(|leg| recv("b", leg)).collect();
        scenario.steps.push(batch(recvs));
        for _ in 0..legs {
            expected.push(v);
        }
    }
    expected.sort_unstable();
    GenCase {
        scenario,
        agreement: Agreement::Exact,
        driver: if rng.chance(1, 2) {
            Driver::Threads
        } else {
            Driver::Polled
        },
        expected: Some(expected),
        shape: "fan-out",
    }
}

/// Per-channel Fifo1s into a Merger: arrival order at `c` is scheduling
/// freedom, the value multiset is not.
fn gen_fan_in(rng: &mut Rng) -> GenCase {
    let channels = rng.range(2, 4);
    let source =
        "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) mult Merger(m[1..#src];c)".to_string();
    let mut scenario = Scenario::new(source, "M");
    scenario.replicate = vec![("src".into(), channels)];
    let rounds = rng.range(1, 3);
    let mut value = 1i64;
    let mut expected = Vec::new();
    for _ in 0..rounds {
        let mut sends = Vec::new();
        for ch in 0..channels {
            sends.push(send("src", ch, value));
            expected.push(value);
            value += 1;
        }
        scenario.steps.push(batch(sends));
        // One recv per batch: concurrent receives on one port race for
        // the single pending-op slot (`PortBusy` is the documented
        // answer), which is driver-scheduling freedom, not connector
        // freedom — the fuzzer scripts around it.
        for _ in 0..channels {
            scenario.steps.push(batch(vec![recv("c", 0)]));
        }
    }
    expected.sort_unstable();
    GenCase {
        scenario,
        agreement: Agreement::Multiset,
        driver: if rng.chance(1, 2) {
            Driver::Threads
        } else {
            Driver::Polled
        },
        expected: Some(expected),
        shape: "fan-in",
    }
}

/// Router: each value goes to exactly one leg; receives are armed on all
/// legs with a quorum so the unserved legs retract.
fn gen_router(rng: &mut Rng) -> GenCase {
    let legs = rng.range(2, 3);
    let source = "P(a;b[]) = Router(a;b[1..#b])".to_string();
    let mut scenario = Scenario::new(source, "P");
    scenario.replicate = vec![("b".into(), legs)];
    let k = rng.range(1, 4);
    let mut expected = Vec::new();
    for v in 1..=k as i64 {
        let mut ops = vec![send("a", 0, v)];
        for leg in 0..legs {
            ops.push(recv("b", leg));
        }
        // Quorum 2: the send plus whichever leg the router picks.
        scenario.steps.push(Step::Batch {
            ops,
            quorum: Some(2),
        });
        expected.push(v);
    }
    expected.sort_unstable();
    GenCase {
        scenario,
        agreement: Agreement::Multiset,
        driver: Driver::Polled, // quorum batches need cancellation
        expected: Some(expected),
        shape: "router",
    }
}

/// The paper's Fig. 9 connector: N producers, one consumer port array,
/// strict cyclic producer order. The `Seq2` ring synchronizes accepting
/// `tl[i+1]` with draining `hd[i]`, so the only always-live script is the
/// strict interleaving the protocol prescribes: send `tl[i]`, drain
/// `hd[i]`, advance.
fn gen_sequencer(rng: &mut Rng) -> GenCase {
    let n = rng.range(1, 3);
    let source = reo_dsl::stdlib::FIG9_SOURCE.to_string();
    let mut scenario = Scenario::new(source, "ConnectorEx11N");
    scenario.replicate = vec![("tl".into(), n), ("hd".into(), n)];
    let rounds = rng.range(1, 3);
    let mut value = 1i64;
    let mut expected = Vec::new();
    for _ in 0..rounds {
        for ch in 0..n {
            scenario.steps.push(batch(vec![send("tl", ch, value)]));
            scenario.steps.push(batch(vec![recv("hd", ch)]));
            expected.push(value);
            value += 1;
        }
    }
    expected.sort_unstable();
    GenCase {
        scenario,
        agreement: Agreement::Exact,
        driver: if rng.chance(1, 2) {
            Driver::Threads
        } else {
            Driver::Polled
        },
        expected: Some(expected),
        shape: "sequencer",
    }
}

/// Fig. 12's `merger` family behind one `Fifo1` per source: a chain of
/// binary mergers that every attach grows at its tail.
const MERGER_CHAIN: &str = "\
M(src[];c) = prod (i:1..#src) Fifo1(src[i];f[i]) mult MergerN(f[1..#src];c)
MergerN(tl[];hd) =
  if (#tl == 1) { Sync(tl[1];hd) }
  else {
    Merg2(tl[1],tl[2];m[2])
    mult prod (i:3..#tl) Merg2(m[i-1],tl[i];m[i])
    mult Sync(m[#tl];hd)
  }";

/// Fan-in with churn: branches join and leave the merger — the variadic
/// primitive or [`MERGER_CHAIN`] — at runtime via the reconfiguration
/// API, across every mode.
fn gen_churn_merger(rng: &mut Rng) -> GenCase {
    let channels = rng.range(1, 2);
    let source = if rng.chance(1, 2) {
        "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) mult Merger(m[1..#src];c)"
    } else {
        MERGER_CHAIN
    };
    let mut scenario = Scenario::new(source.to_string(), "M");
    scenario.replicate = vec![("src".into(), channels)];
    scenario.reconfigurable = true;
    let mut value = 1i64;
    let mut expected = Vec::new();
    let mut live_branches: Vec<usize> = Vec::new(); // attach indices
    let mut next_branch = 0usize;
    let rounds = rng.range(2, 4);
    for _ in 0..rounds {
        // Maybe churn.
        if rng.chance(1, 2) {
            scenario.steps.push(Step::Attach {
                param: "src".into(),
            });
            live_branches.push(next_branch);
            next_branch += 1;
        } else if !live_branches.is_empty() && rng.chance(1, 3) {
            let ix = live_branches.remove(rng.below(live_branches.len()));
            scenario.steps.push(Step::Detach { branch: ix });
        }
        // One value per live leg (static channels + attached branches),
        // then receive them all.
        let mut sends = Vec::new();
        let mut count = 0usize;
        for ch in 0..channels {
            sends.push(send("src", ch, value));
            expected.push(value);
            value += 1;
            count += 1;
        }
        for &b in &live_branches {
            sends.push(Op::Send {
                port: PortRef::Branch { index: b },
                value,
            });
            expected.push(value);
            value += 1;
            count += 1;
        }
        scenario.steps.push(batch(sends));
        // Serialized receives: see `gen_fan_in` on same-port batches.
        for _ in 0..count {
            scenario.steps.push(batch(vec![recv("c", 0)]));
        }
    }
    // Detach everything still live so the run ends quiescent.
    for ix in live_branches {
        scenario.steps.push(Step::Detach { branch: ix });
    }
    expected.sort_unstable();
    GenCase {
        scenario,
        agreement: Agreement::Multiset,
        driver: Driver::Threads, // branch sends block until spliced in
        expected: Some(expected),
        shape: "churn-merger",
    }
}

/// Drop-mid-stream: a Fifo1 channel whose producer port is dropped
/// partway through. Values already buffered must still drain (a buffered
/// value keeps the drain transition live); the first receive past the
/// buffered tail must resolve `Hangup` promptly — a typed end-of-stream,
/// not a deadline.
fn gen_fault_drop(rng: &mut Rng) -> GenCase {
    let source = "P(a;b) = Fifo1(a;b)".to_string();
    let mut scenario = Scenario::new(source, "P");
    let rounds = rng.range(0, 3);
    let mut value = 1i64;
    for _ in 0..rounds {
        scenario.steps.push(batch(vec![send("a", 0, value)]));
        scenario.steps.push(batch(vec![recv("b", 0)]));
        value += 1;
    }
    // Sometimes leave a value parked in the fifo across the drop, so the
    // check covers drain-before-hangup, not just hangup.
    let buffered = rng.chance(1, 2);
    if buffered {
        scenario.steps.push(batch(vec![send("a", 0, value)]));
    }
    scenario.steps.push(Step::DropPort {
        port: param("a", 0),
    });
    if buffered {
        scenario.steps.push(batch(vec![recv("b", 0)]));
    }
    // End-of-stream: must resolve `Hangup`, never block to the deadline.
    scenario.steps.push(batch(vec![recv("b", 0)]));
    GenCase {
        scenario,
        agreement: Agreement::Multiset,
        driver: if rng.chance(1, 2) {
            Driver::Threads
        } else {
            Driver::Polled
        },
        expected: None,
        shape: "fault-drop",
    }
}

/// Worker panic: the test-only hook panics inside the `after`-th firing
/// from arming. Whichever thread drives that firing — caller, fire
/// worker, executor — the panic must be contained, the engine poisoned,
/// and every subsequent (and parked) op must resolve `Poisoned` promptly.
fn gen_fault_panic(rng: &mut Rng) -> GenCase {
    let source = "P(a;b) = Fifo1(a;b)".to_string();
    let mut scenario = Scenario::new(source, "P");
    let warmup = rng.range(0, 2);
    let mut value = 1i64;
    for _ in 0..warmup {
        scenario.steps.push(batch(vec![send("a", 0, value)]));
        scenario.steps.push(batch(vec![recv("b", 0)]));
        value += 1;
    }
    scenario.steps.push(Step::InjectPanic {
        after: rng.below(3) as u64,
    });
    // Each round fires at most twice (fill, drain); whichever firing the
    // countdown lands on, every op here either completes or resolves
    // `Poisoned` — never times out.
    for _ in 0..3 {
        scenario.steps.push(batch(vec![send("a", 0, value)]));
        scenario.steps.push(batch(vec![recv("b", 0)]));
        value += 1;
    }
    GenCase {
        scenario,
        agreement: Agreement::Multiset,
        driver: if rng.chance(1, 2) {
            Driver::Threads
        } else {
            Driver::Polled
        },
        expected: None,
        shape: "fault-panic",
    }
}

/// Direct poison under load: rounds of traffic, then a scripted poison,
/// then more scripted traffic that must all resolve `Poisoned` promptly.
fn gen_fault_poison(rng: &mut Rng) -> GenCase {
    let channels = rng.range(2, 3);
    let source =
        "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) mult Merger(m[1..#src];c)".to_string();
    let mut scenario = Scenario::new(source, "M");
    scenario.replicate = vec![("src".into(), channels)];
    let mut value = 1i64;
    for _ in 0..rng.range(1, 3) {
        let sends: Vec<Op> = (0..channels)
            .map(|ch| {
                let op = send("src", ch, value);
                value += 1;
                op
            })
            .collect();
        scenario.steps.push(batch(sends));
        for _ in 0..channels {
            scenario.steps.push(batch(vec![recv("c", 0)]));
        }
    }
    scenario.steps.push(Step::Poison);
    // Post-poison ops: sends and receives alike resolve `Poisoned`.
    scenario.steps.push(batch(vec![send("src", 0, value)]));
    scenario.steps.push(batch(vec![recv("c", 0)]));
    GenCase {
        scenario,
        agreement: Agreement::Multiset,
        driver: if rng.chance(1, 2) {
            Driver::Threads
        } else {
            Driver::Polled
        },
        expected: None,
        shape: "fault-poison",
    }
}

/// Close racing live ops: a background close fires after a few
/// milliseconds while the script arms a receive nothing will ever serve.
/// The racing op must resolve — a value or a typed `Closed` — within the
/// deadline, never hang.
fn gen_fault_close(rng: &mut Rng) -> GenCase {
    let source = "P(a;b) = Fifo1(a;b)".to_string();
    let mut scenario = Scenario::new(source, "P");
    let buffered = rng.chance(1, 2);
    if buffered {
        scenario.steps.push(batch(vec![send("a", 0, 1)]));
    }
    scenario.steps.push(Step::Close {
        delay_ms: rng.range(1, 10) as u64,
    });
    if buffered {
        // Races the close: a value or `Closed` are both graceful.
        scenario.steps.push(batch(vec![recv("b", 0)]));
    }
    // Nothing will ever serve this receive; only the close resolves it.
    scenario.steps.push(batch(vec![recv("b", 0)]));
    GenCase {
        scenario,
        agreement: Agreement::Multiset,
        driver: if rng.chance(1, 2) {
            Driver::Threads
        } else {
            Driver::Polled
        },
        expected: None,
        shape: "fault-close",
    }
}

/// Generate fault case `index` of `seed`'s stream: scenarios that inject
/// a failure on purpose and are checked with [`crate::fault_case`]'s
/// graceful-degradation discipline instead of trace agreement.
pub fn generate_fault(seed: u64, index: u64) -> GenCase {
    // Offset the fork so fault streams don't mirror the diff streams.
    let mut rng = Rng::new(seed ^ 0xfau64).fork(index);
    let mut case = match rng.below(4) {
        0 => gen_fault_drop(&mut rng),
        1 => gen_fault_panic(&mut rng),
        2 => gen_fault_poison(&mut rng),
        _ => gen_fault_close(&mut rng),
    };
    case.scenario.timeout = Duration::from_secs(5);
    case
}

/// Generate case `index` of `seed`'s stream.
pub fn generate(seed: u64, index: u64) -> GenCase {
    let mut rng = Rng::new(seed).fork(index);
    let mut case = match rng.below(8) {
        0 | 1 => gen_pipeline(&mut rng),
        2 => gen_relay_grid(&mut rng),
        3 => gen_fan_out(&mut rng),
        4 => gen_fan_in(&mut rng),
        5 => gen_router(&mut rng),
        6 => gen_sequencer(&mut rng),
        _ => gen_churn_merger(&mut rng),
    };
    case.scenario.timeout = Duration::from_secs(5);
    case
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for i in 0..50 {
            let a = generate(99, i);
            let b = generate(99, i);
            assert_eq!(a.scenario.source, b.scenario.source);
            assert_eq!(a.scenario.steps, b.scenario.steps);
            assert_eq!(a.expected, b.expected);
        }
    }

    #[test]
    fn every_shape_appears() {
        let mut shapes = std::collections::BTreeSet::new();
        for i in 0..200 {
            shapes.insert(generate(7, i).shape);
        }
        assert!(shapes.len() >= 7, "only saw {shapes:?}");
    }

    #[test]
    fn generated_sources_parse() {
        for i in 0..100 {
            let case = generate(3, i);
            reo_dsl::parse_program(&case.scenario.source)
                .unwrap_or_else(|e| panic!("shape {} source failed: {e}", case.shape));
        }
    }
}
